import doctest
import importlib
from pathlib import Path

import pytest

from ulamdist.permutations import lis_length

# The number of docstring examples in each module.
EXAMPLES = {
    "ulamdist": 0, "ulamdist.census": 0, "ulamdist.cli": 0, "ulamdist.injections": 0,
    "ulamdist.paths": 0, "ulamdist.permutations": 3, "ulamdist.tableaux": 0,
}


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_docstring_examples_run(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
    assert result.attempted == EXAMPLES[name]


def test_readme_library_example_runs():
    # Run the README's "Library example" block and hold each value to its comment.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line]
    scope: dict = {}
    exec(lines[0], scope)
    values = [eval(line.split("#", 1)[0], scope) for line in lines[1:]]
    distance, counts, holds, two_row, hook = values
    assert distance == 2
    assert counts == {1: 1, 2: 13, 3: 9, 4: 1}
    assert holds is True
    assert [lis_length(p) for p in two_row] == [3, 3]
    assert hook == ((3, 1, 2), (3, 1, 2))
    assert [lis_length(p) for p in hook] == [2, 2]
