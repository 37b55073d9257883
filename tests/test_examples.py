"""Every example script imports cleanly.

The examples are a second user-facing surface: nothing else imports
them, so an example that names a deleted or renamed API would break
silently.  Importing each module (without running ``main()``, which
takes seconds to minutes) resolves every ``from repro... import``.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def test_examples_found():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
