"""The CLI digest corpus: every command line of ``make_cli_digests`` gives
the exit code, stdout, stderr and ``--out`` bytes recorded in
``cli_digests.json``. A change that alters output on purpose reruns
``PYTHONPATH=src python3 tests/make_cli_digests.py`` and lists every changed
invocation in CHANGES.md."""

import json

import make_cli_digests as corpus


def _lines(record: dict) -> list[str]:
    """The record as lines; a final newline shows as a last empty line."""
    lines = [f"exit: {record['exit']!r}"]
    for name, text in (("stdout", record["stdout"]), ("stderr", record["stderr"]),
                       *sorted(record["files"].items())):
        lines += [f"{name}: {line!r}" for line in text.split("\n")]
    return lines


def _first_difference(expected: dict, actual: dict) -> str:
    """The first line that differs, as recorded (-) and as run now (+)."""
    old, new = _lines(expected), _lines(actual)
    at = next(k for k in range(max(len(old), len(new))) if old[k:k + 1] != new[k:k + 1])
    return "\n    ".join(f"{sign}{lines[at] if at < len(lines) else '(no line)'}"
                          for sign, lines in (("-", old), ("+", new)))


def test_every_invocation_matches_its_recorded_digest(tmp_path):
    recorded = json.loads(corpus.DIGESTS.read_text(encoding="utf-8"))
    inputs, runs, outputs = corpus.run_corpus(str(tmp_path))
    assert inputs == recorded["inputs"], "the corpus inputs changed"
    assert sorted(runs) == sorted(recorded["runs"]), "the corpus command lines changed"
    changed = [f"{corpus.PROG} {args}\n    {_first_difference(recorded['outputs'][old], outputs[new])}"
               for args, new in runs.items() if new != (old := recorded["runs"][args])]
    assert not changed, f"{len(changed)} of {len(runs)} invocations changed:\n" + "\n".join(
        changed[:20])
