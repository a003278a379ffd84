import doctest
import importlib

import pytest

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
