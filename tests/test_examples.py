"""Smoke tests for the scripts under ``examples/``."""

import os
import re
import runpy

from repro.randomness import SharedRandomness

EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "examples")


def test_derandomize_splitting_prints_a_seed_that_replays(capsys):
    module = runpy.run_path(
        os.path.join(EXAMPLES, "derandomize_splitting.py"), run_name="__main__")
    match = re.search(r"^good seed found: ([01]+)$", capsys.readouterr().out,
                      re.MULTILINE)
    assert match, "the example printed no good seed"
    bits = [int(c) for c in match.group(1)]
    assert len(bits) == module["SEED_BITS"]
    # Hard-wire the printed seed and rerun the scalar algorithm: it must
    # split every instance of the family, read bit by bit.
    shared = SharedRandomness(len(bits), explicit_bits=bits)
    for instance in module["make_family"]():
        coloring = {x: shared.global_bit(x % len(bits))
                    for x in instance.v_side}
        assert instance.is_satisfied(coloring)
