"""Count code and docstring lines of Python modules, one rule every time.

A code line holds a token other than a comment, a newline or indentation,
outside docstrings (a module's, class's or function's leading string).  A
docstring line is a line that a docstring spans.

    python scripts/code_lines.py src/dirac88/*.py
"""
import ast
import io
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(path: str) -> tuple[int, int]:
    """(code lines, docstring lines) of the module at ``path``."""
    with open(path, "rb") as fh:
        source = fh.read()
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code = {line for tok in tokenize.tokenize(io.BytesIO(source).readline)
            if tok.type not in _LAYOUT for line in range(tok.start[0], tok.end[0] + 1)}
    return len(code - docs), len(docs)


if __name__ == "__main__":
    totals = (0, 0)
    for path in sys.argv[1:]:
        lines = count(path)
        totals = tuple(map(sum, zip(totals, lines)))
        print(f"{path:<32} code {lines[0]:>5}  docstring {lines[1]:>4}")
    print(f"{'total':<32} code {totals[0]:>5}  docstring {totals[1]:>4}")
