"""The sequence toolkit: seeded sampling, conditioning, projection, frequency tests.

A run of an experiment is modelled as a finite prefix of an infinite
outcome sequence, drawn i.i.d. from a finite probability space by a
counter-based generator (so any block can be regenerated independently
and runs are reproducible bit for bit).  The toolkit mirrors the
classical closure properties at finite scale:

* law of large numbers  -> a block-1 chi-square test against the claimed law,
* conditioning          -> filter to an event; the result is typical for
                           the renormalized conditional law,
* independence/products -> zip independent sequences; the pair sequence
                           is typical for the product law,
* marginals             -> project a tuple sequence onto a coordinate,
* weight zero           -> a zero-weight symbol never appears, exactly.

=== EXAMPLE OUTPUT ===
biased coin, 100000 draws (seed 20): freq(a) = 0.29876, block-1 p-value = 0.552
conditioned on {a, b}: length 79884, freq(a|{a,b}) = 0.37399 (law: 0.3750)
zero-weight symbol 'x' appearances: 0
zipped fair coins vs product law: battery pass = True
projected pair sequence back to first factor: identical = True
"""

from typicality_lab import (
    FiniteProbabilitySpace,
    condition_seq,
    empirical,
    fair_coin,
    product,
    project_seq,
    run_battery,
    sample_world,
    zip_seqs,
)


def main():
    fps = FiniteProbabilitySpace(["a", "b", "x", "c"], [0.3, 0.5, 0.0, 0.2])
    world = sample_world(fps, 100_000, seed=20)
    stats = empirical(world)
    block1 = run_battery(world, fps, block_lens=(1,)).tests[0]
    print(
        f"biased coin, {len(world)} draws (seed 20): "
        f"freq(a) = {stats.frequency('a'):.5f}, block-1 p-value = {block1.p_value:.3f}"
    )

    event = ["a", "b"]
    cond = condition_seq(world, event)
    cond_law = fps.condition(event)
    print(
        f"conditioned on {{a, b}}: length {len(cond)}, "
        f"freq(a|{{a,b}}) = {empirical(cond).frequency('a'):.5f} "
        f"(law: {cond_law.prob('a'):.4f})"
    )

    print(f"zero-weight symbol 'x' appearances: {stats.counts['x']}")

    left = sample_world(fair_coin(), 20_000, seed=21)
    right = sample_world(fair_coin(), 20_000, seed=22)
    pair = zip_seqs([left, right])
    joint = product(fair_coin(), fair_coin())
    battery = run_battery(pair, joint, block_lens=(1, 2))
    print(f"zipped fair coins vs product law: battery pass = {battery.all_pass}")

    print(
        "projected pair sequence back to first factor: "
        f"identical = {project_seq(pair, 0) == left}"
    )


if __name__ == "__main__":
    main()
