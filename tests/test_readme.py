"""The README's library quick start runs as written."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks(text: str) -> list[tuple[int, str]]:
    """(line number, body) of each ```python block; the fences stay out of the body."""
    return [
        (text.count("\n", 0, m.start(1)), m.group(1))
        for m in re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S)
    ]


def test_readme_python_blocks_pass_doctest():
    text = README.read_text(encoding="utf-8")
    blocks = _python_blocks(text)
    assert blocks, "README.md has no ```python block"
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner()
    for lineno, body in blocks:
        test = parser.get_doctest(body, {}, f"README.md:{lineno + 1}", str(README), lineno)
        assert test.examples, f"no examples in the block at README.md:{lineno + 1}"
        runner.run(test)
    result = runner.summarize(verbose=False)
    assert result.failed == 0, f"{result.failed} of {result.attempted} README examples failed"
