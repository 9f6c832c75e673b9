"""Every script under ``examples/`` imports cleanly against the package.

Nothing else runs the examples, so a renamed or removed public name
would otherwise break them silently.  Each example guards ``main()``
behind ``__name__ == "__main__"``, so importing one runs no simulation.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[2] / "examples").glob("*.py"))


def test_examples_found():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
