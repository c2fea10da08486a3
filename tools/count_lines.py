"""Count the lines of the canclab package.

Prints the total line count of src/canclab/*.py and its code lines: every
line that holds a token other than a comment, with docstrings (module,
class and function) not counted. Blank and comment-only lines are found
with tokenize, docstrings with ast. Run from anywhere:

    python3 tools/count_lines.py
"""

import ast
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "canclab"
NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree):
    """Line numbers covered by the docstrings in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path):
    """(total lines, code lines) of one source file."""
    text = path.read_text(encoding="utf-8")
    code = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in NOT_CODE:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstring_lines(ast.parse(text)))


def main():
    totals = [count(p) for p in sorted(PACKAGE.glob("*.py"))]
    lines, code = (sum(column) for column in zip(*totals))
    print(f"src/canclab: {lines:,} lines, {code:,} code lines")


if __name__ == "__main__":
    main()
