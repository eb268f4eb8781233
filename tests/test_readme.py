"""The README's library quick start and CLI examples run as written."""

import doctest
import re
import shlex
from pathlib import Path

from stanleygrid import cli

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


def _cli_examples(text: str) -> list[tuple[list[str], list[str]]]:
    """(argv, the non-blank lines shown under it) for each `$ stanleygrid` line of the CLI block."""
    block = re.search(r"^## CLI\n.*?^```text\n(.*?)^```", text, re.M | re.S)
    assert block, "README.md has no ```text block under ## CLI"
    examples = []
    for line in block.group(1).splitlines():
        if line.startswith("$ stanleygrid "):
            examples.append((shlex.split(line[2:], comments=True)[1:], []))
        elif line and examples:
            examples[-1][1].append(line)
    return examples


def test_readme_cli_examples_print_what_they_show(capsys):
    examples = _cli_examples(README.read_text(encoding="utf-8"))
    assert len(examples) >= 5
    for argv, shown in examples:
        if "--output" in argv:
            continue
        assert cli.main(argv) == 0, argv
        out = capsys.readouterr().out.splitlines()
        if "..." in shown:  # the lines up to "..." are the start of the output
            shown = shown[: shown.index("...")]
            out = out[: len(shown)]
        assert out == shown, argv
