"""Count the lines and the code lines of each module under src/.

    python tools/src_lines.py [ROOT]

ROOT is a checkout (default: the one this script lies in).  A code line
is a line that holds a token of code: blank lines, comment lines and the
lines of docstrings (the string that opens a module, class or function
body, found with ast) are not code.  One line per module, then the
total, each as `lines code path`.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def count(text):
    """(lines, code lines) of one module's source text."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docs.update(range(body[0].lineno, body[0].end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docs)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("root", nargs="?", default=Path(__file__).resolve().parents[1])
    root = Path(ap.parse_args(argv).root)
    paths = sorted((root / "src").rglob("*.py"))
    if not paths:
        print(f"{root}: no modules under src/", file=sys.stderr)
        return 2
    total = [0, 0]
    for path in paths:
        lines, code = count(path.read_text())
        total[0] += lines
        total[1] += code
        print(f"{lines:6d} {code:6d} {path.relative_to(root)}")
    print(f"{total[0]:6d} {total[1]:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
