"""README's examples run as written and print what their comments say."""

from __future__ import annotations

import json
import re
from pathlib import Path

from cauchycert.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


def test_python_examples_print_their_comments():
    # Each ``print(...)  # text`` line must print ``text``, or the start of a
    # ``text`` that goes on after a comma ("0.0019..., well under the bound").
    blocks = _blocks("python")
    assert len(blocks) == 2
    printed: list[str] = []
    namespace = {"print": lambda *args: printed.append(" ".join(map(str, args)))}
    for block in blocks:  # in order, in one namespace: the second uses ``seq``
        exec(compile(block, "README.md", "exec"), namespace)
    comments = [line.split("#", 1)[1].strip() for block in blocks
                for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == len(comments) == 5
    for got, comment in zip(printed, comments):
        assert comment == got or comment.startswith(got + ","), (got, comment)


def test_quick_start_certifies_as_shown(tmp_path, capsys):
    config, excerpt = map(json.loads, _blocks("json"))
    path = tmp_path / "orbit.json"
    path.write_text(json.dumps(config))
    assert main(["certify", "--config", str(path), "--no-timestamp"]) == 0
    report = json.loads(capsys.readouterr().out)
    entry = next(e for e in report["results"]["per_delta"] if e["delta"] == excerpt["delta"])
    # The excerpt flattens the entry, its outcome and its certificate.
    layers = (entry, entry["outcome"], entry["outcome"]["certificate"])
    shown = {key: next(layer[key] for layer in layers if key in layer) for key in excerpt}
    assert shown == excerpt
