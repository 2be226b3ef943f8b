"""Count the total and code lines of Python modules.

A code line holds a token other than a comment, a newline or an
indentation change, and is not a line of a module, class or function
docstring.  Run from the repository root:

    python tests/code_lines.py [DIR]

It prints total and code lines per module of DIR (default
src/padiczeta) and their sums.  The file is not collected by pytest;
`tests/test_source_guards.py` checks the counting on a synthetic
source.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree) -> set:
    """The line numbers spanned by module, class and function
    docstrings."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def count_lines(source: str) -> tuple:
    """(total lines, code lines) of a Python source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring_lines(ast.parse(source))
    return len(source.splitlines()), len(code)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0] if argv else "src/padiczeta")
    totals = [0, 0]
    print(f"{'module':<20} {'total':>7} {'code':>7}")
    for path in sorted(root.glob("*.py")):
        total, code = count_lines(path.read_text())
        totals[0] += total
        totals[1] += code
        print(f"{path.name:<20} {total:>7} {code:>7}")
    print(f"{'all':<20} {totals[0]:>7} {totals[1]:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
