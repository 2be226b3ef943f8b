"""Tests of the benchmark itself: span arithmetic, the wrappers and the
seeded generator.  Run with ``python3 -m pytest perfbench``."""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_times_on_a_synthetic_tree():
    # root [0, 10] with children a [1, 4] and b [5, 9]; b has child c [6, 7]
    parents = [-1, 0, 0, 2]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 7.0]
    assert spans.self_times(parents, starts, ends) == [3.0, 3.0, 3.0, 1.0]


def test_self_times_of_a_leaf_is_its_duration():
    assert spans.self_times([-1], [2.5], [4.0]) == [1.5]


def test_layer_metrics_on_synthetic_spans():
    tracer = spans.Tracer()
    ids = {name: i for i, name in enumerate(tracer.names)}
    # an off-K value certified at two nested levels, each enumerating
    # cosets; then a W transform with one Iwasawa factorization inside
    rows = [("testfn.f_convolution", -1, 0.0, 10.0),
            ("testfn.f_convolution", 0, 1.0, 4.0),
            ("group.enumerate_cosets", 1, 2.0, 3.0),
            ("testfn.f_convolution", 0, 5.0, 9.0),
            ("rslocal.W_fcg", -1, 11.0, 15.0),
            ("group.iwasawa_UAK", 4, 12.0, 13.0)]
    for name, parent, start, end in rows:
        tracer.name_ids.append(ids[name])
        tracer.requests.append(0)
        tracer.parents.append(parent)
        tracer.starts.append(start)
        tracer.ends.append(end)
    m = spans.layer_metrics(tracer)
    assert m["testfn.f_convolution.calls"] == (3, "count")
    assert m["testfn.f_convolution.self_s"] == (3.0 + 2.0 + 4.0, "s")
    assert m["testfn.f_convolution.levels_per_value"] == (2.0, "ratio")
    assert m["group.self_s"] == (2.0, "s")
    assert m["rslocal.W_fcg.iwasawa_per_call"] == (1.0, "ratio")
    assert m["cli.main.calls"] == (0, "count")


def _bindings(mods):
    """Every (namespace, attribute) of the package that holds a target."""
    out = {}
    for name, modname, path in spans.SPAN_TARGETS + spans.COUNT_TARGETS:
        owner, fn = spans._resolve(getattr(mods, modname), path)
        namespaces = ([owner] if owner is not getattr(mods, modname)
                      else spans.package_modules())
        for ns in namespaces:
            for attr, value in vars(ns).items():
                if value is fn:
                    out[(id(ns), attr)] = (ns, attr, fn)
    return out


def test_wrappers_patch_every_binding_and_restore_the_originals():
    mods = workloads.load_package()
    before = _bindings(mods)
    # names imported into other modules are bound there too
    assert mods.testfn.iwasawa_UAK is mods.group.iwasawa_UAK
    assert (id(mods.testfn), "iwasawa_UAK") in before
    assert (id(mods.arith.CycValue), "__radd__") in before
    tracer = spans.Tracer()
    with tracer.installed():
        for ns, attr, fn in before.values():
            assert vars(ns)[attr] is not fn, attr
        ctx = mods.arith.DepthContext(2, 1)
        g = mods.group.Mat([[1, 0], [1, 1]], 2)
        mods.testfn.f_explicit(g, ctx)
    for ns, attr, fn in before.values():
        assert vars(ns)[attr] is fn, attr
    names = [tracer.names[i] for i in tracer.name_ids]
    outer = names.index("testfn.f_explicit")
    iwa = names.index("group.iwasawa_UAK")
    assert tracer.parents[outer] == -1 and tracer.parents[iwa] == outer
    assert tracer.counts["arith.valuation"] > 0


def test_wrappers_restore_after_an_exception():
    mods = workloads.load_package()
    before = _bindings(mods)
    with pytest.raises(RuntimeError):
        with spans.Tracer().installed():
            raise RuntimeError("boom")
    for ns, attr, fn in before.values():
        assert vars(ns)[attr] is fn, attr


def test_spans_write_and_read_back(tmp_path):
    mods = workloads.load_package()
    tracer = spans.Tracer()
    with tracer.installed():
        mods.testfn.f_explicit(mods.group.Mat([[1, 0], [1, 1]], 2),
                               mods.arith.DepthContext(2, 1))
    tracer.write(tmp_path / "spans")
    back = spans.read_spans(tmp_path / "spans")
    assert back["spans"] == len(tracer) > 0
    for field in ("name_ids", "requests", "parents", "starts", "ends"):
        assert list(back[field]) == list(getattr(tracer, field))
    assert back["counts"] == tracer.counts


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_and_package_free(name, monkeypatch):
    monkeypatch.setattr(workloads.WORKLOADS[name], "POOL_ROUNDS", 2)
    for mod in [m for m in sys.modules if m.startswith("padiczeta")]:
        monkeypatch.delitem(sys.modules, mod)
    first = workloads.draw(name, 7)
    assert not any(m.startswith("padiczeta") for m in sys.modules)
    assert first == workloads.draw(name, 7)
    assert first != workloads.draw(name, 8)
    # every round sends the same mix of kinds
    kinds = [sorted(kind for kind, _ in rnd) for rnd in first]
    assert kinds[0] == kinds[1]


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert run.percentile(values, 0.5) == (50, 50)
    assert run.percentile(values, 0.9) == (90, 10)
    assert run.percentile([4.0], 0.9) == (4.0, 0)
