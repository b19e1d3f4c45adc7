#!/usr/bin/env python3
"""Count the code lines of a package's modules.

    python tools/count_code_lines.py [PATH]

PATH is a directory of modules (default: src/jacobi49 of this checkout)
or one .py file.  A code line is a physical line that holds part of a
statement: blank lines, comment lines and the lines of docstrings (the
string that opens a module, class or function body) do not count, and
every line of a statement spread over several lines does.  The script
prints the count of each module, then the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# tokens that hold no code: a comment, line ends and the indentation markers
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node, clean=False):
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main() -> int:
    path = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT / "src" / "jacobi49"
    modules = sorted(path.glob("*.py")) if path.is_dir() else [path]
    total = 0
    for module in modules:
        count = code_lines(module.read_text())
        total += count
        print(f"{count:6d}  {module.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
