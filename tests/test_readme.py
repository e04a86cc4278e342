"""README.md's ```python blocks, run as doctests, and the tests it cites."""

import ast
import doctest
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
# (line number of the block's first line, block body without its fences)
BLOCKS = [
    (TEXT.count("\n", 0, match.start(1)) + 1, match.group(1))
    for match in re.finditer(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)
]


def test_readme_cites_only_tests_that_exist():
    # Each count, bound, memory size or accuracy that README states names
    # the test that pins it, as tests/<file>.py::<test function>; a test
    # renamed or deleted would leave its claim unpinned.
    cited = set(re.findall(r"\btests/(\w+\.py)::(\w+)", TEXT))
    assert len(cited) >= 8
    missing = []
    for path, name in sorted(cited):
        tree = ast.parse((README.parent / "tests" / path).read_text(encoding="utf-8"))
        defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        if not (name.startswith("test_") and name in defined):
            missing.append(f"tests/{path}::{name}")
    assert not missing


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("lineno, block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block(lineno, block):
    test = doctest.DocTestParser().get_doctest(block, {}, f"README.md:{lineno}", str(README), lineno - 1)
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    runner.run(test)
    result = runner.summarize(verbose=False)
    assert result.attempted > 0
    assert result.failed == 0
