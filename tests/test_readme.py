"""The README's Python quick start runs as written, and its config is the
CLI's template."""

import re
from pathlib import Path

from qptori import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    namespace = {"__name__": "readme_quick_start"}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["sol"].history[-1]["invariance"] <= 1e-10
    assert max(namespace["W"].order_errors) <= 1e-10


def test_config_is_the_template():
    block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
    assert block == cli.example_config
