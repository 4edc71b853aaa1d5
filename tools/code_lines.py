"""Print the total lines and the code lines of each module of ``src/qdcsim``.

A code line holds a token other than a comment, a docstring or blank space.
Usage: ``python tools/code_lines.py`` (from any directory).
"""

import ast
import io
import pathlib
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "qdcsim"
LAYOUT = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)
OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def counts(text: str) -> tuple[int, int]:
    """The total lines of ``text`` and its code lines."""
    docstrings = {
        (node.body[0].lineno, node.body[0].col_offset)
        for node in ast.walk(ast.parse(text))
        if isinstance(node, OWNERS) and ast.get_docstring(node, clean=False) is not None
    }
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in LAYOUT and not (tok.type == tokenize.STRING and tok.start in docstrings):
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code)


def main() -> None:
    print(f"{'module':<16}{'lines':>7}{'code':>7}")
    total = code = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines, lines_of_code = counts(path.read_text(encoding="utf-8"))
        total, code = total + lines, code + lines_of_code
        print(f"{path.name:<16}{lines:>7}{lines_of_code:>7}")
    print(f"{'total':<16}{total:>7}{code:>7}")


if __name__ == "__main__":
    main()
