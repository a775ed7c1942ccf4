"""Generator configs shared by the unit and acceptance suites.

Effect sizes are deliberately large so the statistical assertions have
vanishing flake rates at the fixture sample sizes.  :func:`gen_configs`
draws random valid configs for the property tests.
"""

from hypothesis import strategies as st

from rarebayes.synthgen import (
    CategoricalSpec,
    ContinuousSpec,
    DependentSpec,
    GenConfig,
    GroupSpec,
    NoiseSpec,
)

FLIP = {"good": (0.75, 0.25), "bad": (0.25, 0.75)}
FLOP = {"good": (0.25, 0.75), "bad": (0.75, 0.25)}


def recovery_config(n: int = 50_000, seed: int = 101) -> GenConfig:
    """Six informative fields (one planted parent/child pair) plus two noise fields.

    Per-class MI is roughly 0.07 bits for f1..f4 and the parent, and
    0.03 bits for the child, so the cumulative-0.95 rule needs all six
    before it stops; the noise fields sit three orders of magnitude lower.
    """
    return GenConfig(
        n=n,
        seed=seed,
        categorical=(
            CategoricalSpec("f1", ("x", "y"), FLIP),
            CategoricalSpec("f2", ("x", "y"), FLOP),
            CategoricalSpec("f3", ("x", "y"), FLIP),
            CategoricalSpec("f4", ("x", "y"), FLOP),
            CategoricalSpec("dep_parent", ("a0", "a1"),
                            {"good": (0.7, 0.3), "bad": (0.2, 0.8)}),
        ),
        dependent=(
            DependentSpec(
                "dep_child", "dep_parent", ("b0", "b1"),
                {c: {"a0": (0.85, 0.15), "a1": (0.15, 0.85)}
                 for c in ("good", "bad")},
            ),
        ),
        noise=(
            NoiseSpec("z1", outcomes=("u", "v", "w"), dist=(0.5, 0.3, 0.2)),
            NoiseSpec("z2", mean=0.0, sd=1.0),
        ),
    )


def indep_config(n: int = 100_000, seed: int = 202) -> GenConfig:
    """Conditionally independent truth for the posterior-oracle comparison.

    Continuous shifts are kept at 0.3-0.6 sigma so an 8-bin likelihood
    approximates the true density ratio well.
    """
    return GenConfig(
        n=n,
        seed=seed,
        categorical=(
            CategoricalSpec("plan", ("a", "b"),
                            {"good": (0.7, 0.3), "bad": (0.3, 0.7)}),
            CategoricalSpec("region", ("n", "s", "e"),
                            {"good": (0.5, 0.3, 0.2), "bad": (0.2, 0.3, 0.5)}),
            CategoricalSpec("pay", ("cc", "dd", "iv"),
                            {"good": (0.6, 0.3, 0.1), "bad": (0.15, 0.3, 0.55)}),
            CategoricalSpec("intl", ("no", "yes"),
                            {"good": (0.85, 0.15), "bad": (0.5, 0.5)}),
        ),
        continuous=(
            ContinuousSpec("bill", {"good": 0.0, "bad": 0.6},
                           {"good": 1.0, "bad": 1.0}),
            ContinuousSpec("mins", {"good": 5.0, "bad": 5.6},
                           {"good": 2.0, "bad": 2.0}),
        ),
    )


def messy_config(n: int = 4_000, seed: int = 303) -> GenConfig:
    """Small mixed fixture with missing values, groups, and zero-count cells."""
    return GenConfig(
        n=n,
        seed=seed,
        categorical=(
            CategoricalSpec("plan", ("a", "b"),
                            {"good": (0.8, 0.2), "bad": (0.2, 0.8)},
                            missing_rate=0.1),
            CategoricalSpec("hub", ("h1", "h2", "h3"),
                            {"good": (0.6, 0.4, 0.0), "bad": (0.1, 0.3, 0.6)},
                            missing_rate=0.05),
        ),
        continuous=(
            ContinuousSpec("bill", {"good": 0.0, "bad": 1.5},
                           {"good": 1.0, "bad": 1.0}, missing_rate=0.1),
        ),
        dependent=(
            DependentSpec(
                "addon", "plan", ("p", "q"),
                {c: {"a": (0.9, 0.1), "b": (0.2, 0.8)} for c in ("good", "bad")},
            ),
        ),
        group=GroupSpec(name="cust", records_per_group=3),
    )


def big_config(n: int = 1_000_000, seed: int = 404) -> GenConfig:
    """Twenty mixed variables for the throughput regression guard."""

    def flip(p):
        return {"good": (1 - p, p), "bad": (p, 1 - p)}

    cats = tuple(
        CategoricalSpec(f"c{i}", ("x", "y"), flip(0.25 + 0.03 * i),
                        missing_rate=0.02 if i % 3 == 0 else 0.0)
        for i in range(6)
    ) + (
        CategoricalSpec("c6", ("r", "s", "t"),
                        {"good": (0.5, 0.3, 0.2), "bad": (0.2, 0.3, 0.5)}),
        CategoricalSpec("c7", ("k", "l", "m", "n"),
                        {"good": (0.4, 0.3, 0.2, 0.1), "bad": (0.1, 0.2, 0.3, 0.4)}),
    )
    conts = tuple(
        ContinuousSpec(f"y{i}", {"good": 0.0, "bad": 0.5 + 0.1 * i},
                       {"good": 1.0, "bad": 1.0},
                       missing_rate=0.02 if i == 0 else 0.0)
        for i in range(4)
    )
    deps = (
        DependentSpec("d0", "c0", ("p", "q"),
                      {c: {"x": (0.8, 0.2), "y": (0.2, 0.8)} for c in ("good", "bad")}),
        DependentSpec("d1", "c6", ("p", "q"),
                      {c: {"r": (0.9, 0.1), "s": (0.5, 0.5), "t": (0.15, 0.85)}
                       for c in ("good", "bad")}),
    )
    noise = (
        NoiseSpec("z0", outcomes=("u", "v"), dist=(0.6, 0.4)),
        NoiseSpec("z1", outcomes=tuple(f"o{i}" for i in range(30)),
                  dist=tuple([1 / 30.0] * 30)),
        NoiseSpec("z2", outcomes=("a", "b", "c"), dist=(0.5, 0.3, 0.2),
                  missing_rate=0.05),
        NoiseSpec("z3", mean=0.0, sd=1.0),
        NoiseSpec("z4", mean=10.0, sd=3.0),
        NoiseSpec("z5", mean=-5.0, sd=0.5),
    )
    return GenConfig(n=n, seed=seed, categorical=cats, continuous=conts,
                     dependent=deps, noise=noise)


@st.composite
def gen_configs(draw, sizes=st.integers(1, 10**6)) -> GenConfig:
    """A random valid generator config with ``n`` drawn from ``sizes``."""
    labels = tuple(draw(st.lists(st.sampled_from(["good", "bad", "a b", "x,y", "q"]),
                                 min_size=2, max_size=2, unique=True)))
    names = iter(f"v{i}" for i in range(1000))
    rates = st.floats(0.0, 1.0)
    reals = st.floats(-1e6, 1e6, allow_nan=False)
    spreads = st.floats(1e-3, 1e3)

    def outcomes() -> tuple[str, ...]:
        return tuple(f"o{i}" for i in range(draw(st.integers(1, 4))))

    def pmf(k: int) -> tuple[float, ...]:
        weights = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
        return tuple(w / sum(weights) for w in weights)

    categorical = []
    for _ in range(draw(st.integers(1, 3))):
        outs = outcomes()
        categorical.append(CategoricalSpec(
            next(names), outs, {c: pmf(len(outs)) for c in labels}, draw(rates)))
    continuous = [
        ContinuousSpec(next(names), {c: draw(reals) for c in labels},
                       {c: draw(spreads) for c in labels}, draw(rates))
        for _ in range(draw(st.integers(0, 2)))
    ]
    dependent = []
    for _ in range(draw(st.integers(0, 2))):
        parent = draw(st.sampled_from(categorical))
        outs = outcomes()
        dist = {c: {po: pmf(len(outs)) for po in parent.outcomes} for c in labels}
        dependent.append(DependentSpec(next(names), parent.name, outs, dist, draw(rates)))
    noise = []
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            outs = outcomes()
            noise.append(NoiseSpec(next(names), outcomes=outs, dist=pmf(len(outs)),
                                   missing_rate=draw(rates)))
        else:
            noise.append(NoiseSpec(next(names), mean=draw(reals), sd=draw(spreads),
                                   missing_rate=draw(rates)))
    group = draw(st.none() | st.builds(GroupSpec, st.sampled_from(["grp", "acct"]),
                                       st.integers(1, 50)))
    return GenConfig(
        n=draw(sizes),
        seed=draw(st.integers(0, 2**63)),
        class_var=draw(st.sampled_from(["class", "y"])),
        class_labels=labels,
        positive_rate=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        categorical=tuple(categorical),
        continuous=tuple(continuous),
        dependent=tuple(dependent),
        noise=tuple(noise),
        group=group,
    )


def number_paths(doc, path=()):
    """The key path of every number in a decoded JSON document."""
    if isinstance(doc, dict | list):
        for key, item in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from number_paths(item, path + (key,))
    elif isinstance(doc, int | float) and not isinstance(doc, bool):
        yield path
