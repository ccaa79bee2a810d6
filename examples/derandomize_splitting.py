"""Lemma 4.1 end-to-end: turn a randomized algorithm into a deterministic one.

The zero-round splitting algorithm (Lemma 3.4) colored by b shared bits
is a uniform mixture of 2^b deterministic algorithms. Over a *finite*
family of instances, if the mixture's error probability is below
1/|family|, some single seed works everywhere — and enumeration finds
it. This is exactly the argument behind the paper's 2^(-n²) threshold
(there the family is all labeled n-node graphs).

    python examples/derandomize_splitting.py
"""

from repro.core.derandomization import (
    exhaustive_derandomize,
    family_size_bound,
    seeds_to_failure_curve,
)
from repro.core.splitting import random_instance

SEED_BITS = 10


def make_family():
    """The finite family the derandomized algorithm must cover."""
    return [random_instance(num_u=12, num_v=24, degree=8, seed=s)
            for s in range(32)]


def run(instance, seeds):
    """Lemma 3.4 on every seed at once: V-node x takes shared bit x mod b.

    ``seeds`` holds one b-bit shared string per row; the result says,
    per row, whether every U-node sees both colors.
    """
    bits = seeds.shape[1]
    return instance.satisfied_by(seeds[:, [x % bits for x in instance.v_side]])


def main() -> None:
    family = make_family()
    print(f"family: {len(family)} splitting instances; "
          f"seed space: 2^{SEED_BITS} = {1 << SEED_BITS} seeds")

    result = exhaustive_derandomize(run, family, SEED_BITS)
    curve = seeds_to_failure_curve(result)
    print(f"randomized error probability (measured): "
          f"{result.empirical_error:.3f} "
          f"(threshold for derandomization: {1 / len(family):.3f})")
    print(f"seeds by #failed instances: {curve}")
    print(f"good seed found: {''.join(map(str, result.good_seed))}")
    print("=> hard-wiring this seed IS a deterministic algorithm "
          "for every instance in the family")

    # The paper-scale version of the same numerology: how small must the
    # error be to cover ALL graphs on n nodes? (Lemma 4.1's 2^(-n^2).)
    for n in (10, 100, 1000):
        print(f"n={n:>5}: |G_n| <= 2^{family_size_bound(n):.0f} labeled "
              f"graphs -> need error < 2^-{family_size_bound(n):.0f}")


if __name__ == "__main__":
    main()
