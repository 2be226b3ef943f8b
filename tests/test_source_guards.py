"""Static guards on the package source."""

import ast
import importlib.util
import io
import tokenize
from pathlib import Path

SOURCES = sorted((Path(__file__).parent.parent / "src" / "padiczeta")
                 .glob("*.py"))


def test_no_assert_statements():
    # `python -O` strips asserts, so a check that carries correctness must
    # raise an exception instead
    assert SOURCES
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src: {found}"


def test_no_assertion_errors_raised():
    # an invariant that fails raises the exception that names it
    # (ArithmeticError, ValueError, ...), never a bare AssertionError
    def raises_assertion(node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == "AssertionError"

    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Raise) and node.exc is not None
             and raises_assertion(node)]
    assert not found, f"raise AssertionError in src: {found}"


def test_rows_view_readers():
    # `Mat` keeps only its integer storage: entries are read as `num` and
    # `den`, or one at a time as the Fraction `g[i, j]`, and nothing in
    # src reads a `.rows` view
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "rows"]
    assert not found, f".rows read in src: {found}"


WORKLOADS = Path(__file__).parent.parent / "perfbench" / "workloads.py"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = FUNCTIONS + (ast.ClassDef,)


def _identifiers(nodes) -> set:
    """The names and attribute names read anywhere in nodes."""
    return {getattr(node, "id", None) or getattr(node, "attr", None)
            for top in nodes for node in ast.walk(top)} - {None}


def _unreached() -> tuple:
    """(top-level definitions, methods) of the package that the program
    does not reach, as sorted "module.name" and "module.Class.name"
    (`_reach`)."""
    tops, methods, reached = _reach()
    return (sorted(".".join(key) for key in tops if key not in reached),
            sorted(".".join(key) for key in methods if key not in reached))


def _reach() -> tuple:
    """(tops, methods, reached): the package's top-level definitions and
    methods, keyed (module, name) and (module, Class, name), each with the
    nodes its reach reads, and the keys that the program reaches.

    The program is `cli.main`, the module-level code of every module
    (imports aside) and the benchmark: every identifier of
    `perfbench/workloads.py`, read as tokens, not imported.  From these
    roots a name reaches every definition of that name, in any module,
    and a reached definition reaches the names its body reads.  A method
    is reached when its class is and its name is read, or it is a dunder;
    a class reaches its bases, decorators and the statements of its body
    that are not methods.  Names are matched across modules, so the pass
    errs toward reached."""
    roots = {"main"} | {
        tok.string for tok in tokenize.generate_tokens(
            io.StringIO(WORKLOADS.read_text()).readline)
        if tok.type == tokenize.NAME}
    tops, methods = {}, {}
    for path in SOURCES:
        for top in ast.parse(path.read_text()).body:
            if not isinstance(top, DEFINITIONS):
                if not isinstance(top, (ast.Import, ast.ImportFrom)):
                    roots |= _identifiers([top])
                continue
            own = [top]
            if isinstance(top, ast.ClassDef):
                own = top.bases + top.keywords + top.decorator_list
                for node in top.body:
                    if isinstance(node, FUNCTIONS):
                        methods[path.stem, top.name, node.name] = node
                    else:
                        own.append(node)
            tops[path.stem, top.name] = own
    names, reached = set(roots), set()
    while True:
        new = {key for key in tops if key[1] in names} | {
            key for key in methods if (key[:2] in reached)
            and (key[2] in names or key[2].startswith("__"))}
        new -= reached
        if not new:
            break
        reached |= new
        for key in new:
            names |= _identifiers(tops[key] if len(key) == 2
                                  else [methods[key]])
    return tops, methods, reached


def test_every_definition_is_reached_by_the_program():
    # the package holds only what `verify`, `eval` and the benchmark run:
    # code that only the tests reach lives in `tests/` (the definitional
    # twins in `tests/twins.py`, the paper checks in
    # `tests/paper_checks.py`)
    tops, _ = _unreached()
    assert not tops, f"definitions only the tests reach: {tops}"


def test_every_method_is_reached_by_the_program():
    # the same rule for the methods of the package's classes
    _, methods = _unreached()
    assert not methods, f"methods only the tests reach: {methods}"


def _defaults(path: Path) -> list:
    """(callee, parameter, positional index or None, offset) for each
    defaulted parameter of a function or method of one module, and each
    defaulted field of its dataclasses, whose callee is the class.

    A call with j positional arguments covers the indices below j +
    offset.  The offset is 1 for a method, whose self or cls a call by
    attribute supplies (an unbound call then counts as one argument more,
    erring toward set), and `__init__` is called by its class name."""
    tree = ast.parse(path.read_text())
    out, owners = [], {}
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if isinstance(fn, FUNCTIONS) and "staticmethod" not in \
                    _identifiers(fn.decorator_list):
                owners[fn] = (cls.name if fn.name == "__init__"
                              else fn.name, 1)
        if "dataclass" in _identifiers(cls.decorator_list):
            fields = [s for s in cls.body if isinstance(s, ast.AnnAssign)
                      and "ClassVar" not in ast.unparse(s.annotation)]
            out += [(cls.name, s.target.id, i, 0)
                    for i, s in enumerate(fields) if s.value is not None]
    for fn in ast.walk(tree):
        if not isinstance(fn, FUNCTIONS):
            continue
        name, offset = owners.get(fn, (fn.name, 0))
        positional = fn.args.posonlyargs + fn.args.args
        first = len(positional) - len(fn.args.defaults)
        out += [(name, a.arg, i, offset)
                for i, a in enumerate(positional) if i >= first]
        out += [(name, a.arg, None, 0)
                for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                if d is not None]
    return out


def test_every_default_is_set_by_the_program():
    # the same rule for parameters: a default that no call of the program
    # overrides is a setting only the tests make, and the code behind it
    # moves to `tests/`.  The program's calls are those in the reached
    # definitions, the module-level code and `perfbench/workloads.py`
    # (the roots of `_unreached`); a call sets a parameter by keyword, by
    # position, or through * or **, and names are matched across modules
    tops, methods, reached = _reach()
    nodes = [ast.parse(WORKLOADS.read_text())]
    nodes += [top for path in SOURCES for top in ast.parse(path.read_text())
              .body if not isinstance(top, DEFINITIONS + (
                  ast.Import, ast.ImportFrom))]
    nodes += [node for key in reached
              for node in (tops[key] if len(key) == 2 else [methods[key]])]
    calls = {}
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                name = (getattr(node.func, "id", None)
                        or getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)

    def sets(call, param, index, offset):
        if any(kw.arg in (param, None) for kw in call.keywords):
            return True
        if index is None:
            return False
        # a * argument may supply every position from its own on
        first = next((i for i, a in enumerate(call.args)
                      if isinstance(a, ast.Starred)), len(call.args))
        return index < first + offset or first < len(call.args)

    unset = sorted(f"{path.stem}.{name}.{param}" for path in SOURCES
                   for name, param, index, offset in _defaults(path)
                   if not any(sets(call, param, index, offset)
                              for call in calls.get(name, [])))
    assert not unset, f"defaults that no call of the program sets: {unset}"


def test_residue_kernels_are_not_recursive():
    # the residue kernels are loops over the shared elimination, the trace
    # recurrence and the digit lifting: no function in `residue` calls
    # itself, so no cofactor expansion comes back
    tree = ast.parse((SOURCES[0].parent / "residue.py").read_text())
    classes = {node.name for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}

    def callee(call):
        func = call.func
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute) and isinstance(func.value,
                                                          ast.Name) \
                and func.value.id in classes | {"self", "cls"}:
            return func.attr
        return None

    found = [f"{fn.name}:{node.lineno}" for fn in ast.walk(tree)
             if isinstance(fn, ast.FunctionDef)
             for node in ast.walk(fn)
             if isinstance(node, ast.Call) and callee(node) == fn.name]
    assert not found, f"recursive calls in residue.py: {found}"


def _functions(module: str, wanted: set) -> dict:
    """The module-level functions of a source module named in wanted,
    each of which must exist."""
    tree = ast.parse((SOURCES[0].parent / module).read_text())
    bodies = {node.name: node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name in wanted}
    assert set(bodies) == wanted
    return bodies


def test_transform_value_path_builds_no_per_group_cyc_value():
    # the counted values (the W_fcg cell walk and K-sweep, the convolution
    # level walk, the vanishing cell sums, the direct zeta double sum) are
    # counted in integer histograms and made values only by
    # `CycValue.from_histogram`, so these functions never form a root of
    # unity, a running CycSum or a CycValue at an order they work out
    # themselves
    names = {"rslocal.py": {"_w_cell_data", "_box_cells",
                            "_transform_values_over_K", "_phase_at"},
             "testfn.py": {"f_convolution", "_explicit_exponent_at"},
             "group.py": {"box_histograms"},
             "nicedomain.py": {"_cell_sum", "_a_coefficient"},
             "zeta.py": {"zeta_direct", "_direct_counts"}}

    def computed_order(node):
        # a direct `CycValue(order, ...)` call whose order is not a literal
        if not (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "CycValue"):
            return False
        args = node.args[:1] + [kw.value for kw in node.keywords
                                if kw.arg == "order"]
        return any(not isinstance(a, ast.Constant) for a in args)

    found = []
    for module, wanted in names.items():
        found += [f"{module}:{name}:{node.lineno}"
                  for name, fn in _functions(module, wanted).items()
                  for node in ast.walk(fn)
                  if (getattr(node, "id", None)
                      or getattr(node, "attr", None))
                  in ("CycSum", "root_of_unity") or computed_order(node)]
    assert not found, f"per-group CycValue route: {found}"


def test_counted_products_leave_the_order_rule_to_arith():
    # `CycValue.from_histogram` alone works out the common order of
    # counted products and its gcd: the walks that count (psi, phase) or
    # (J, chi) exponent pairs call no gcd, lcm or max and hand over the
    # factors' own orders as a tuple, and the constructor takes no witness
    names = {"rslocal.py": {"_phase_at"},
             "testfn.py": {"f_convolution", "_explicit_exponent_at"},
             "group.py": {"box_histograms"},
             "nicedomain.py": {"_cell_sum", "_a_coefficient"}}

    def callee(node):
        return getattr(node.func, "id", None) or getattr(node.func, "attr",
                                                         None)

    def own_order(call):
        # the order argument of a `from_histogram` call, if not a tuple
        args = call.args[2:3] + [kw.value for kw in call.keywords
                                 if kw.arg == "order"]
        return any(not isinstance(a, ast.Tuple) for a in args)

    found = []
    for module, wanted in names.items():
        found += [f"{module}:{name}:{node.lineno}"
                  for name, fn in _functions(module, wanted).items()
                  for node in ast.walk(fn)
                  if isinstance(node, ast.Call)
                  and (callee(node) in ("gcd", "lcm", "max")
                       or callee(node) == "from_histogram"
                       and own_order(node))]
    assert not found, f"order worked out outside arith: {found}"
    tree = ast.parse((SOURCES[0].parent / "arith.py").read_text())
    (ctor,) = [node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)
               and node.name == "from_histogram"]
    params = [a.arg for a in ctor.args.args + ctor.args.kwonlyargs]
    assert "witness" not in params, params



def test_character_sums_share_one_sweep_and_one_kernel():
    # the transform cells and the vanishing cell sums are one sweep of
    # head u a (`group.box_histograms`), and neither walks the box itself;
    # both read their phases at k through `testfn._explicit_exponent_at`.
    # The vanishing cells are swept by `_cell_keys` and read by `_cell_sum`
    def called(fn):
        return {getattr(node.func, "id", None)
                or getattr(node.func, "attr", None)
                for node in ast.walk(fn) if isinstance(node, ast.Call)}

    sweeps = [("rslocal.py", "_box_cells"), ("nicedomain.py", "_cell_keys")]
    readers = [("rslocal.py", "_phase_at"), ("nicedomain.py", "_cell_sum")]
    for module, name in sweeps:
        names = called(_functions(module, {name})[name])
        assert "box_histograms" in names, name
        assert not names & {"product", "box_columns"}, name
    for module, name in readers:
        names = called(_functions(module, {name})[name])
        assert "_explicit_exponent_at" in names, name
        assert "_support_exponent" not in names, name


def _callers(name: str) -> set:
    """The top-level functions and methods of the package, as
    "module.name" and "module.Class.name", whose body calls name, as a
    bare name or an attribute."""
    def calls(fn):
        return any(isinstance(node, ast.Call)
                   and (getattr(node.func, "id", None)
                        or getattr(node.func, "attr", None)) == name
                   for node in ast.walk(fn))

    out = set()
    for path in SOURCES:
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, FUNCTIONS):
                defs = [(top.name, top)]
            elif isinstance(top, ast.ClassDef):
                defs = [(f"{top.name}.{fn.name}", fn) for fn in top.body
                        if isinstance(fn, FUNCTIONS)]
            else:
                continue
            out |= {f"{path.stem}.{key}" for key, fn in defs if calls(fn)}
    return out


def test_one_phase_kernel_on_the_support():
    # the closed formula of f, the cell readers and the W side of the
    # direct zeta sum read one number, sum U[i][i+1] / U[i][i] mod q^2 of
    # a matrix lower triangular mod q with a unit determinant, by one
    # elimination, `testfn._support_exponent`; the table of unit inverses
    # is read only by it and by the two callers of the Crout walk, and the
    # definitional kernels that test every pivot are twins in `tests/`
    assert _callers("_crout_walk") == {"testfn._convolution_integral",
                                       "zeta._direct_counts"}
    extra = _callers("_unit_inverses") - _callers("_crout_walk") - {
        "testfn._support_exponent"}
    assert not extra, f"other readers of the unit inverses: {sorted(extra)}"
    defined = sorted(f"{path.stem}.{node.name}" for path in SOURCES
                     for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, FUNCTIONS) and node.name in {
                         "_J_exponent_mod", "_explicit_exponent_mod"})
    assert not defined, f"definitional kernels in src: {defined}"
    assert _callers("_support_exponent") == {
        "testfn.f_explicit", "testfn._explicit_exponent_at",
        "whitmodel.WhittakerOnH.kq_exponent_mod"}


def _called_names(fn, local: dict) -> set:
    """The names that fn calls, as a bare name or an attribute, and those
    called in turn by the module-level functions of its own module that it
    reaches (local maps their names to their definitions)."""
    seen, todo, names = set(), [fn], set()
    while todo:
        node = todo.pop()
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            name = (getattr(call.func, "id", None)
                    or getattr(call.func, "attr", None))
            names.add(name)
            if name in local and name not in seen:
                seen.add(name)
                todo.append(local[name])
    return names


def test_formula_and_convolution_routes_share_no_kernel():
    # the two routes of `testfn-agreement` stay independent: the integer
    # closed formula reaches no convolution column walk and none of the
    # Fraction route (Iwasawa, chi_tau_eval); the convolution reaches no
    # Iwasawa K-part reader, phase kernel on the support or per-term
    # elimination; and the Fraction formula in `TestFunction.phase`, which
    # the W_fcg twins read f through, shares no integer kernel with the
    # cell walk they check
    tree = ast.parse((SOURCES[0].parent / "testfn.py").read_text())
    local = {node.name: node for node in tree.body
             if isinstance(node, ast.FunctionDef)}
    (cls,) = [node for node in tree.body
              if isinstance(node, ast.ClassDef)
              and node.name == "TestFunction"]
    (phase,) = [node for node in cls.body
                if isinstance(node, ast.FunctionDef) and node.name == "phase"]
    rules = [
        ("f_explicit", local["f_explicit"],
         {"_crout_column", "_congruence_columns", "iwasawa_UAK",
          "chi_tau_eval"}),
        ("TestFunction.phase", phase, {"_unit_a_k_residue",
                                       "_support_exponent"}),
    ]
    rules += [(name, local[name],
               {"_a_k_residue", "_unit_a_k_residue", "_support_exponent",
                "_eliminate"})
              for name in ("f_convolution", "_convolution_integral")]
    found = [f"{name} -> {sorted(_called_names(fn, local) & banned)}"
             for name, fn, banned in rules
             if _called_names(fn, local) & banned]
    assert not found, f"shared kernels: {found}"


def _recursive_functions(tree) -> list:
    """The functions, nested ones included, of a parsed module that call
    themselves by name."""
    return [fn.name for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef)
            and any(isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == fn.name
                    for node in ast.walk(fn))]


def test_coset_walks_share_one_crout_walk():
    # the convolution at an integral point and the f side of the direct
    # zeta sum walk the column tables of their terms by the one depth-first
    # Crout walk `testfn._crout_walk`: neither recurses itself, nothing in
    # `zeta` takes a Crout step or enumerates a product of tables, and in
    # `testfn` only the Crout walk and the Bareiss level walk of
    # `f_convolution` recurse
    names = {"testfn.py": {"_convolution_integral"},
             "zeta.py": {"_direct_counts"}}
    for module, wanted in names.items():
        for name, fn in _functions(module, wanted).items():
            assert "_crout_walk" in {getattr(node.func, "id", None)
                                     for node in ast.walk(fn)
                                     if isinstance(node, ast.Call)}, name
            assert not _recursive_functions(fn), name
    tree = ast.parse((SOURCES[0].parent / "zeta.py").read_text())
    calls = {getattr(node.func, "id", None) or getattr(node.func, "attr",
                                                       None)
             for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert not calls & {"_crout_column", "product"}, calls
    assert not _recursive_functions(tree)
    testfn = ast.parse((SOURCES[0].parent / "testfn.py").read_text())
    assert sorted(top.name for top in testfn.body
                  if isinstance(top, ast.FunctionDef)
                  and _recursive_functions(top)) == ["_crout_walk",
                                                     "f_convolution"]


def test_certificates_close_through_certify():
    # the four stabilization certificates close by the one rule
    # `arith.certify`, which raises their `CertificateCapExceeded`, so
    # none of them raises it itself
    names = {"testfn.py": {"f_convolution"}, "rslocal.py": {"W_fcg", "Q_P"},
             "nicedomain.py": {"vanishing_check"}}
    for module, wanted in names.items():
        for name, fn in _functions(module, wanted).items():
            calls = {getattr(node.func, "id", None)
                     for node in ast.walk(fn) if isinstance(node, ast.Call)}
            assert "certify" in calls, name
            assert "CertificateCapExceeded" not in calls, name


def test_no_truncation_knob_parameters():
    # the caps are module constants (testfn.LEVEL_CAP, rslocal.BOX_START,
    # BOX_CAP and SHELL_CAP, nicedomain.MAX_REFINE) and the parameters
    # that no caller set are gone; `cap` stays only as the name of the
    # cap that a certificate reports, and as the subsample bound of the
    # base points that `rho0_report` scans
    banned = {"cfg", "cap", "max_refine", "d_rs", "extension_index",
              "pivot_val"}
    allowed = {("arith.py", "certify", "cap"),
               ("arith.py", "__init__", "cap"),
               ("nicedomain.py", "_entry_val", "cap"),
               ("nicedomain.py", "_base_points", "cap")}

    def params(node):
        return (node.args.posonlyargs + node.args.args
                + node.args.kwonlyargs)

    found = [(path.name, node.name, arg.arg) for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.FunctionDef)
             for arg in params(node) if arg.arg in banned]
    assert set(found) <= allowed, sorted(set(found) - allowed)
    # one value at every caller is a constant, not a parameter: the unit
    # shell of the concentration scan, s = 0 of the slope scan, the
    # window 6m of the denominator scan, and delta_N and its half exponent
    one_valued = {"whitmodel.py": {"concentration_check": "box"},
                  "nicedomain.py": {"rho0_report": "s"},
                  "rslocal.py": {"denominator_scan": "window"},
                  "group.py": {"modular_delta": "side",
                               "modular_delta_half_exponent": "side"}}
    for module, wanted in one_valued.items():
        for name, fn in _functions(module, set(wanted)).items():
            assert wanted[name] not in {a.arg for a in params(fn)}, name
    assert not [path.name for path in SOURCES
                if "RSIntegralConfig" in path.read_text()]
    # the simple-root bound T^{d2} is T where no caller set d2: these
    # functions name no d2, as a parameter, a variable or a report field
    d2_free = {"rslocal.py": {"denominator_scan"},
               "nicedomain.py": {"vanishing_check", "hypothesis_diagonal",
                                 "rho0_report", "_vanishing_rows"}}
    for module, wanted in d2_free.items():
        for name, fn in _functions(module, wanted).items():
            names = {getattr(node, "arg", None) or getattr(node, "id", None)
                     or getattr(node, "value", None)
                     for node in ast.walk(fn)
                     if isinstance(node, (ast.arg, ast.Name, ast.Constant))}
            assert "d2" not in names, name


def test_mellin_sums_are_gone():
    # every cell of the explicit transform has the central exponents, so
    # its sum is one monomial, collected in one `CycSum`: no polynomial
    # keyed by exponents is left in the package
    found = [path.name for path in SOURCES
             if "MellinPoly" in path.read_text()]
    assert not found, found


def _cached_functions(tree) -> dict:
    """{name: (function, decorator)} for each function or method of a
    parsed module under a `functools` cache."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                if getattr(target, "attr", None) in (
                        "cache", "lru_cache", "cached_property"):
                    out[node.name] = (node, deco)
    return out


def test_transform_cells_are_the_one_bounded_cache_in_rslocal():
    # the cells of a transform box depend on (f, c, a, B, nprime) only, so
    # they are cached under exactly that key, in a bounded cache, and
    # every call passes the five arguments positionally so that a box has
    # one key; the only other cache in `rslocal` is the certification of
    # the standard element per (ctx, n)
    tree = ast.parse((SOURCES[0].parent / "rslocal.py").read_text())
    cached = _cached_functions(tree)
    assert set(cached) == {"_w_cell_data", "standard_E_element"}
    fn, deco = cached["_w_cell_data"]
    assert [a.arg for a in fn.args.args] == ["f", "c", "a", "B", "nprime"]
    assert not fn.args.defaults and not fn.args.kwonlyargs
    assert deco.func.attr == "lru_cache" and not deco.args
    [size] = [kw.value for kw in deco.keywords if kw.arg == "maxsize"]
    assert isinstance(size.value, int) and size.value > 0
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "_w_cell_data"]
    assert calls
    assert all(len(node.args) == 5 and not node.keywords for node in calls)


def test_vanishing_cells_are_the_one_bounded_cache_in_nicedomain():
    # the swept cells of a vanishing sum depend on (f, a, domain, levels)
    # only, not on s or the K-point, so they are cached under exactly that
    # key, in a bounded cache; every call passes the four arguments
    # positionally, and the levels become a key once, at the call in
    # `_cell_sum`, as the sorted items of its levels dict
    tree = ast.parse((SOURCES[0].parent / "nicedomain.py").read_text())
    cached = _cached_functions(tree)
    assert set(cached) == {"_cell_keys"}
    fn, deco = cached["_cell_keys"]
    assert [a.arg for a in fn.args.args] == ["f", "a", "domain", "levels"]
    assert not fn.args.defaults and not fn.args.kwonlyargs
    assert not fn.args.posonlyargs and not fn.args.vararg
    assert deco.func.attr == "lru_cache" and not deco.args
    [size] = [kw.value for kw in deco.keywords if kw.arg == "maxsize"]
    assert isinstance(size.value, int) and size.value > 0
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "_cell_keys"]
    assert calls
    assert all(len(node.args) == 4 and not node.keywords for node in calls)
    [cell_sum] = [node for node in tree.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "_cell_sum"]
    assert [node for node in ast.walk(cell_sum) if node in calls] == calls
    assert [ast.unparse(node.args[3]) for node in calls] == [
        "tuple(sorted(levels.items()))"]


def test_no_cache_keyed_on_a_request():
    # a cache keyed on a point of the group, or on the whole request of a
    # transform, vanishing or zeta value, would only replay repeated
    # requests; the benchmark pools repeat whole requests, so such a memo
    # would show a gain that no real caller sees
    requests = {"W_fcg", "_phase_at", "vanishing_check", "zeta_direct",
                "zeta_explicit"}
    found = [f"{path.name}:{name}" for path in SOURCES
             for name, (fn, _) in _cached_functions(
                 ast.parse(path.read_text())).items()
             if name in requests
             or {"k", "g"} & {a.arg for a in fn.args.args}]
    assert not found, f"caches keyed on a request: {found}"


def test_code_line_counter_on_synthetic_source():
    # `tests/code_lines.py` counts a line as code when it holds a token
    # other than a comment, a newline or an indentation change, less the
    # module, class and function docstrings; a string that is not a
    # docstring counts on each of its lines
    spec = importlib.util.spec_from_file_location(
        "code_lines", Path(__file__).parent / "code_lines.py")
    code_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(code_lines)
    source = '''"""Module docstring
over two lines."""

import os  # a comment


# a comment line
class A:
    """Class docstring."""

    x = (1,
         2)

    def f(self):
        """Function
        docstring."""
        s = """a string
that is not a docstring"""
        return s
'''
    assert code_lines.count_lines(source) == (19, 8)
