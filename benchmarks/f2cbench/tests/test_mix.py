from collections import Counter

from f2cbench import mix

SECTIONS = [f"district-{d:02d}/section-{s:02d}" for d in range(3) for s in range(4)]
SENSORS = [f"sensor-{i:03d}" for i in range(40)]
CATEGORIES = ["energy", "noise", "parking"]


def tier_mix(seed, rep=0):
    return mix.tier_mix(seed, rep, 3600.0, SECTIONS, SENSORS, CATEGORIES, 300, 40, 6)


def test_equal_seeds_give_the_identical_mix():
    assert tier_mix(7) == tier_mix(7)
    assert mix.serve_mix(7, 0, 500) == mix.serve_mix(7, 0, 500)


def test_other_seeds_and_reps_give_another_mix():
    assert tier_mix(7) != tier_mix(8)
    assert tier_mix(7, rep=0) != tier_mix(7, rep=1)
    assert mix.serve_mix(7, 0, 500) != mix.serve_mix(8, 0, 500)
    assert mix.serve_mix(7, 0, 500) != mix.serve_mix(7, 1, 500)


def test_the_tier_mix_has_the_stated_shape():
    ops = tier_mix(7)
    groups = Counter(op.group for op in ops)
    assert groups == {"point": 300, "scatter": 40, "summarize": 6}
    assert {op.kind for op in ops} == set(mix.KINDS) | {"summarize"}
    # Every window is its own memo key.
    assert len({(op.since, op.until, op.section_id, op.sensor_id, op.category) for op in ops}) == len(ops)
    for op in ops:
        if op.kind == "section_span":
            assert op.tiers == {mix.FOG1, mix.FOG2, mix.CLOUD}
            assert op.since < 12 * 3600 < 18 * 3600 < op.until
        elif op.kind.endswith("_fog1"):
            assert op.tiers == {mix.FOG1} and op.since >= (18 + mix.MARGIN) * 3600 and op.until <= 24 * 3600
        elif op.kind.endswith("_fog2"):
            assert op.tiers == {mix.FOG2} and (12 + mix.MARGIN) * 3600 <= op.since and op.until <= 18 * 3600
        elif op.kind.endswith("_cloud"):
            assert op.tiers == {mix.CLOUD} and op.until <= 12 * 3600
        else:
            assert op.tiers is None


def test_the_serve_mix_follows_its_shares():
    draws = mix.serve_mix(3, 0, 20_000)
    shares = Counter(kind for kind, _, _ in draws)
    for kind, share in mix.SERVE_KINDS:
        assert abs(shares[kind] / len(draws) - share) < 0.02
    assert all(0.0 <= u < 1.0 and 0.0 <= v < 1.0 for _, u, v in draws)
