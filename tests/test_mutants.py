"""Named mutants of the exchange that `verify` must catch.

Each row of MUTANTS patches one attribute of `towersim.exchange` for one
`verify` run, with no source rewriting, and names the config the run uses,
the exit code `verify` must return and what it must print on which stream:
its first mismatch, or the error that stopped it.
"""

import pytest
import yaml

from towersim import exchange
from towersim.cli import EXIT_ERROR, EXIT_MISMATCH, main
from towersim.simnet import ALL_TO_ALL


def swap_first_two(entries: dict) -> None:
    """Swap the values of a dict's first two keys, if it has two."""
    if len(entries) >= 2:
        first, second = list(entries)[:2]
        entries[first], entries[second] = entries[second], entries[first]


def sending(label, mutate):
    """exchange.all_to_all, but ``mutate`` edits each sender's {destination:
    message} dict of ``label`` in place before it is sent."""
    all_to_all = exchange.all_to_all

    def wrapped(group, sends, step, trace):
        if step == label:
            for messages in sends.values():
                mutate(messages)
        return all_to_all(group, sends, step, trace)

    return "all_to_all", wrapped


def misfiling(label):
    """In every message of ``label`` the first two shards swap payloads:
    each id is still sent, carrying the other's piece."""
    return sending(label, lambda messages: [swap_first_two(m) for m in messages.values()])


def misaddressing(label):
    """In every message dict of ``label`` with two destinations or more, the
    first two destinations swap payloads."""
    return sending(label, swap_first_two)


def plan_step_d_transposed():
    """exchange.tower_plan, with its step-d all-to-all byte matrices transposed."""
    tower_plan = exchange.tower_plan

    def wrapped(*args):
        planned = tower_plan(*args)
        collectives = planned.trace.collectives
        for i, one in enumerate(collectives):
            if one.label == "d" and one.kind == ALL_TO_ALL:
                collectives[i] = one._replace(nbytes=one.nbytes.T)
        return planned

    return "tower_plan", wrapped


# name: ((exchange attribute, replacement), config overrides, exit code,
#        output stream, what it must print)
MUTANTS = {
    # The default 2x2 run with 8 tables: each owner holds two shards, so
    # step a's bags and step d's blocks each go to the wrong shard.
    "step-a-misfiled-shards": (
        misfiling("a"), {"tables": {"count": 8}}, EXIT_MISMATCH, "out",
        "result: MISMATCH at rank=0 row=0 col=0 baseline=13000.0 tower=8000.0\n"),
    "step-d-misfiled-shards": (
        misfiling("d"), {"tables": {"count": 8}}, EXIT_MISMATCH, "out",
        "result: MISMATCH at rank=0 row=0 col=0 baseline=13000.0 tower=2008000.0\n"),
    # On the default 2x2 run, each class has two members, and each tower's
    # block for one goes to the other.
    "step-f-misaddressed": (
        misaddressing("f"), {}, EXIT_MISMATCH, "out",
        "result: MISMATCH at rank=0 row=0 col=0 baseline=13000.0 tower=6000.0\n"),
    # With 3 tables on 2x2, one tower's two owners hold 1 and 0 tables, so
    # its step-d matrix is not symmetric and the run leaves its plan.
    "plan-step-d-transposed": (
        plan_step_d_transposed(), {"tables": {"count": 3}}, EXIT_ERROR, "err",
        "error: tower pipeline: collective 2 (label 'd') differs from its plan\n"),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_verify_catches_the_mutant(tmp_path, capsys, monkeypatch, name):
    (attr, mutant), overrides, code, stream, output = MUTANTS[name]
    monkeypatch.setattr(exchange, attr, mutant)
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump(overrides))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "verify"]) == code
    assert getattr(capsys.readouterr(), stream) == output
