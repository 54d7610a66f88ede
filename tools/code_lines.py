"""Count code lines of Python files: lines that hold a token other than a
comment, with docstrings (every statement that is a lone string) and
blank lines left out.

    python tools/code_lines.py [paths]

Each path is a file or a directory (searched for *.py); the default is
src/rct.  Prints one line per file and the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree) -> set:
    """The line numbers of every statement that is a lone string: the
    docstrings of modules, classes and functions, and those that follow
    a constant."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def code_lines(path) -> int:
    text = Path(path).read_text()
    skip = _docstring_lines(ast.parse(text, str(path)))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1)
                         if n not in skip)
    return len(lines)


def main(argv) -> int:
    files = []
    for arg in argv or ["src/rct"]:
        p = Path(arg)
        files += sorted(p.rglob("*.py")) if p.is_dir() else [p]
    total = 0
    for f in files:
        n = code_lines(f)
        total += n
        print(f"{n:6d}  {f}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
