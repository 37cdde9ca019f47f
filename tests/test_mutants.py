"""Named mutants of the exchange that `verify` must catch.

Each row of MUTANTS patches one attribute of `towersim.exchange` for one
`verify` run, with no source rewriting, and names the config the run uses
and the first mismatch `verify` must report, exiting 3.
"""

import pytest
import yaml

from towersim import exchange
from towersim.cli import EXIT_MISMATCH, main


def misfiling(label):
    """exchange.all_to_all, but in every message of ``label`` the first two
    shards swap payloads: each id is still sent, carrying the other's piece."""
    all_to_all = exchange.all_to_all

    def wrapped(group, sends, step, trace):
        if step == label:
            for messages in sends.values():
                for message in messages:
                    if len(message) >= 2:
                        first, second = list(message)[:2]
                        message[first], message[second] = message[second], message[first]
        return all_to_all(group, sends, step, trace)

    return "all_to_all", wrapped


# name: ((exchange attribute, replacement), config overrides, first mismatch)
MUTANTS = {
    # The default 2x2 run with 8 tables: each owner holds two shards, so
    # step a's bags and step d's blocks each go to the wrong shard.
    "step-a-misfiled-shards": (misfiling("a"), {"tables": {"count": 8}},
                               "rank=0 row=0 col=0 baseline=13000.0 tower=8000.0"),
    "step-d-misfiled-shards": (misfiling("d"), {"tables": {"count": 8}},
                               "rank=0 row=0 col=0 baseline=13000.0 tower=2008000.0"),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_verify_catches_the_mutant(tmp_path, capsys, monkeypatch, name):
    (attr, mutant), overrides, mismatch = MUTANTS[name]
    monkeypatch.setattr(exchange, attr, mutant)
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump(overrides))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "verify"]) == EXIT_MISMATCH
    assert capsys.readouterr().out == f"result: MISMATCH at {mismatch}\n"
