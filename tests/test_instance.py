import json
import math
import pickle
import re
import time

import numpy as np
import pytest

from hetbai import (
    ProblemInstance,
    arm_stats,
    confusion_pairs,
    from_json,
    gen_hardness_instance,
    gen_overlap_instance,
    partition_arms,
    slot_index,
    slot_stats,
    to_json,
    validate,
)
from hetbai.cli import dispatch
from hetbai.instance import OVERLAP_PATTERNS

from helpers import (
    class_instance,
    loop_arm_stats,
    loop_from_json,
    loop_multiplicities,
    loop_structural_violations,
    loop_to_json,
    make_instance,
    mean_of,
    random_admissible_instance,
    random_structural_instance,
    reference_classes,
    symmetric_two_arm,
    with_means,
)


def assert_stats_equal(got, want):
    for field in ("global_means", "gaps", "best_arms"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype, field
        assert np.array_equal(a, b), field


class TestValidate:
    def test_report_kept_with_the_instance(self):
        # every batch of an instance reads one report; a pickled copy computes its own
        v = gen_overlap_instance(2, seed=3)
        report = validate(v)
        assert validate(v) is report
        copy = pickle.loads(pickle.dumps(v))
        assert "_report" not in copy.__dict__
        assert validate(copy) == report

    def test_distinct_means_admissible(self):
        v = make_instance([(0, 1)], {(0, 0): 1.0, (0, 1): 0.0})
        report = validate(v)
        assert report.structurally_valid
        assert report.admissible
        assert report.violations == ()

    def test_exact_tie_inadmissible(self):
        v = make_instance([(0, 1)], {(0, 0): 1.0, (0, 1): 1.0})
        report = validate(v)
        assert report.structurally_valid
        assert not report.admissible
        assert any("tied best arm at client 1" in msg for msg in report.violations)

    def test_gap_within_rounding_error_is_a_tie(self):
        # 50.0 against 49.999999999999986 (two ulps) is a summation-order
        # artefact of ingest; an admissible reading would give c* near 1e28
        v = make_instance([(0, 1), (2, 3)], {(0, 0): 50.0, (0, 1): 49.999999999999986,
                                              (1, 2): 30.0, (1, 3): 20.0})
        report = validate(v)
        assert report.structurally_valid
        assert not report.admissible
        assert len(report.violations) == 1
        message = report.violations[0]
        assert message.startswith("client 1: best arm 1 and arm 2 differ by 1.42e-14")
        assert "rounding error" in message
        # four ulps apart is beyond the bound (2 * gamma_2 * 50 = 2.2e-14) and separates the arms
        apart = make_instance([(0, 1)], {(0, 0): 50.0, (0, 1): 49.99999999999997})
        assert validate(apart).admissible

    def test_negative_means_bound_by_their_magnitude(self):
        # the mirror image of the case above: the best arm is the larger signed
        # mean, and the rounding bound scales with |mu|
        v = make_instance([(0, 1)], {(0, 0): -49.999999999999986, (0, 1): -50.0})
        (message,) = validate(v).violations
        assert message.startswith("client 1: best arm 1 and arm 2 differ by 1.42e-14")
        apart = make_instance([(0, 1)], {(0, 0): -49.99999999999997, (0, 1): -50.0})
        assert validate(apart).admissible

    def test_rounding_bound_grows_with_multiplicity(self):
        # arm 1's aggregate is the mean of three summed means: n = 4 roundings
        sets = [(0, 1), (0, 1), (0, 1)]
        lo = {(m, i): mu for m in range(3) for i, mu in ((0, 1.0 + 2.0**-52), (1, 1.0))}
        assert not validate(make_instance(sets, lo)).admissible
        hi = {(m, i): mu for m in range(3) for i, mu in ((0, 1.0 + 2.0**-48), (1, 1.0))}
        assert validate(make_instance(sets, hi)).admissible

    def test_single_arm_client_is_structural_violation(self):
        v = ProblemInstance(num_arms=1, num_clients=1, arm_sets=((0,),), means=((1.0,),))
        report = validate(v)
        assert not report.structurally_valid
        assert any("fewer than 2" in msg for msg in report.violations)

    def test_uncovered_arm_reported(self):
        v = ProblemInstance(
            num_arms=3, num_clients=1, arm_sets=((0, 1),), means=((1.0, 0.0),)
        )
        report = validate(v)
        assert not report.structurally_valid
        assert any("arm 3" in msg for msg in report.violations)

    def test_uncovered_arms_reported_one_run_at_a_time(self):
        v = ProblemInstance(
            num_arms=10, num_clients=2, arm_sets=((1, 2), (4, 5)), means=((1.0, 0.0), (1.0, 0.0))
        )
        assert validate(v).violations == (
            "arm 1 not accessible to any client",
            "arm 4 not accessible to any client",
            "arms 7..10 not accessible to any client",
        )

    def test_uncovered_run_costs_nothing_per_arm(self):
        # A check with a message or a set entry per uncovered arm would exhaust
        # memory at K = 10**12 rather than fail, so K = 10**5 has to pass first:
        # such a check gives 99998 messages there, cheaply.
        for K in (10**5, 10**12):
            doc = {"K": K, "M": 1, "arm_sets": [[1, 2]],
                   "means": [{"client": 1, "arm": 1, "mu": 1.0}, {"client": 1, "arm": 2, "mu": 0.0}]}
            start = time.perf_counter()
            report = validate(from_json(json.dumps(doc)))
            assert time.perf_counter() - start < 1.0
            assert report.violations == (f"arms 3..{K} not accessible to any client",)

    def test_structural_violations_match_loop(self):
        rng = np.random.default_rng(23)
        checked = {"valid": 0, "invalid": 0}
        for _ in range(400):
            v = random_structural_instance(rng)
            sets, means = [list(s) for s in v.arm_sets], [list(row) for row in v.means]
            K, M = v.num_arms, v.num_clients
            for _ in range(int(rng.integers(0, 3))):
                m = int(rng.integers(M))
                kind = rng.choice(["more-arms", "outside", "negative", "nan", "inf", "short", "no-arms"])
                if kind == "more-arms":
                    K += int(rng.integers(1, 4))
                elif kind in ("outside", "negative"):
                    arm = K + int(rng.integers(0, 3)) if kind == "outside" else -1
                    if arm not in sets[m]:
                        sets[m], means[m] = sorted([*sets[m], arm]), means[m] + [0.5]
                elif kind in ("nan", "inf") and means[m]:
                    means[m][int(rng.integers(len(means[m])))] = math.nan if kind == "nan" else -math.inf
                elif kind == "short":
                    n = int(rng.integers(0, 2))
                    sets[m], means[m] = sets[m][:n], means[m][:n]
                else:
                    K = 0
            w = ProblemInstance(num_arms=K, num_clients=M, arm_sets=tuple(map(tuple, sets)),
                                means=tuple(map(tuple, means)))
            want = loop_structural_violations(w)
            report = validate(w)
            assert report.structurally_valid == (not want)
            if want:
                assert list(report.violations) == want
            checked["invalid" if want else "valid"] += 1
        assert min(checked.values()) > 100, checked

    @pytest.mark.parametrize(
        "instance, message",
        [
            (ProblemInstance(num_arms=0, num_clients=1, arm_sets=((),), means=((),)),
             "instance has no arms"),
            (ProblemInstance(num_arms=2, num_clients=0, arm_sets=(), means=()),
             "instance has no clients"),
            (ProblemInstance(num_arms=2, num_clients=1, arm_sets=((0, 1, 5),), means=((1.0, 0.0, 2.0),)),
             "client 1: arm index 6 outside 1..2"),
            (ProblemInstance(num_arms=2, num_clients=1, arm_sets=((0, 1),), means=((1.0, math.nan),)),
             "client 1: non-finite mean for arm 2"),
            (ProblemInstance(num_arms=2, num_clients=1, arm_sets=((0, 1),), means=((-math.inf, 0.0),)),
             "client 1: non-finite mean for arm 1"),
        ],
        ids=["no-arms", "no-clients", "arm-outside", "nan-mean", "infinite-mean"],
    )
    def test_structural_violation_reported(self, instance, message):
        report = validate(instance)
        assert not report.structurally_valid and not report.admissible
        assert message in report.violations

    def test_admissible_iff_all_gaps_positive(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            v = random_admissible_instance(rng)
            stats = arm_stats(v)
            assert np.all(stats.gaps > 0)
            for m, arms in enumerate(v.arm_sets):
                mus = stats.global_means[np.array(arms)]
                assert int((mus == mus.max()).sum()) == 1


class TestArmStats:
    def test_three_arm_single_client(self):
        v = make_instance([(0, 1, 2)], {(0, 0): 3.0, (0, 1): 2.0, (0, 2): 1.0})
        stats = arm_stats(v)
        np.testing.assert_allclose(stats.global_means, [3.0, 2.0, 1.0])
        np.testing.assert_allclose(stats.gaps, [1.0, 1.0, 2.0])
        assert stats.best_arms.tolist() == [0]

    def test_symmetric_instance(self):
        v = symmetric_two_arm()
        stats = arm_stats(v)
        np.testing.assert_allclose(stats.global_means, [1.0, 0.0])
        assert slot_index(v).multiplicities.tolist() == [2, 2]
        np.testing.assert_allclose(stats.gaps, [1.0, 1.0])
        assert stats.best_arms.tolist() == [0, 0]

    def test_hardness_member_rho_4(self):
        v = gen_hardness_instance(4.0, 2, 1, [(0, 1)])
        stats = arm_stats(v)
        np.testing.assert_allclose(stats.global_means, [0.5, 1.0])
        np.testing.assert_allclose(stats.gaps, [0.5, 0.5])
        assert stats.best_arms.tolist() == [1]

    def test_rejects_structurally_invalid(self):
        v = ProblemInstance(num_arms=2, num_clients=1, arm_sets=((0,),), means=((1.0,),))
        with pytest.raises(ValueError, match="structurally invalid"):
            arm_stats(v)


class TestSlotReductions:
    def test_match_per_client_loop_bitwise(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            v = random_structural_instance(rng)
            assert_stats_equal(arm_stats(v), loop_arm_stats(v))

    def test_tied_tops_bitwise(self):
        v = make_instance(
            [(0, 1, 2), (1, 2), (0, 3)],
            {(0, 0): 1.0, (0, 1): 1.0, (0, 2): 0.2, (1, 1): 1.0, (1, 2): 0.2, (2, 0): 1.0, (2, 3): 1.0},
        )
        stats = arm_stats(v)
        assert_stats_equal(stats, loop_arm_stats(v))
        assert stats.best_arms.tolist() == [0, 1, 0]
        assert stats.gaps[0] == stats.gaps[1] == stats.gaps[3] == 0.0

    def test_unpulled_zero_means_bitwise(self):
        # empirical instance early in an episode: arms never pulled read 0
        v = make_instance(
            [(0, 1, 2), (1, 2), (0, 2)],
            {(0, 0): 0.7, (0, 1): 0.0, (0, 2): 0.0, (1, 1): 0.0, (1, 2): 0.0, (2, 0): -0.3, (2, 2): 0.0},
        )
        assert_stats_equal(arm_stats(v), loop_arm_stats(v))

    def test_slot_stats_on_flat_means(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            v = random_structural_instance(rng)
            index = slot_index(v)
            flat = np.concatenate([np.asarray(row) for row in v.means])
            assert_stats_equal(slot_stats(index, flat), loop_arm_stats(v))
            assert index.num_slots == sum(len(s) for s in v.arm_sets)
            assert np.array_equal(index.multiplicities, loop_multiplicities(v))
            for m, arms in enumerate(v.arm_sets):
                lo, hi = index.starts[m], index.starts[m + 1]
                assert index.slot_arm[lo:hi].tolist() == list(arms)
                assert set(index.slot_client[lo:hi].tolist()) == {m}

    def test_index_co_ownership_and_partition(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            v = random_structural_instance(rng)
            index = slot_index(v)
            want = np.zeros((v.num_arms, v.num_arms))
            for arms in v.arm_sets:
                want[np.ix_(arms, arms)] += 1.0
            assert np.array_equal(index.co_ownership, want)
            assert index.co_ownership.dtype == want.dtype
            classes = [tuple(arms.tolist()) for arms, _ in reference_classes(v.arm_sets)]
            assert index.partition.classes == tuple(classes)
            assert index.partition.class_of == tuple(
                next(j for j, cls in enumerate(classes) if i in cls) for i in range(v.num_arms)
            )

    def test_class_blocks_stack_the_classes_of_each_size(self):
        rng = np.random.default_rng(14)
        several = 0  # instances with several classes of one size
        for _ in range(200):
            v = class_instance(rng)
            by_size = {}
            for arms, co in reference_classes(v.arm_sets):
                by_size.setdefault(len(arms), []).append((arms, co))
            blocks = slot_index(v).class_blocks
            assert [arms.shape[1] for arms, _ in blocks] == sorted(by_size)
            for arms, co in blocks:
                want = by_size[arms.shape[1]]
                assert np.array_equal(arms, [a for a, _ in want])
                assert np.array_equal(co, [c for _, c in want]) and co.dtype == np.float64
            several += any(len(arms) > 1 for arms, _ in blocks)
        assert several >= 10, several

    def test_index_rejects_structurally_invalid(self):
        v = ProblemInstance(num_arms=2, num_clients=1, arm_sets=((0,),), means=((1.0,),))
        with pytest.raises(ValueError, match="structurally invalid"):
            slot_index(v)


class TestConfusionPairs:
    def test_single_client(self):
        v = make_instance([(0, 1, 2)], {(0, 0): 3.0, (0, 1): 2.0, (0, 2): 1.0})
        assert confusion_pairs(v) == ((0, 1), (0, 2))

    def test_shared_pair_deduplicated(self):
        assert confusion_pairs(symmetric_two_arm()) == ((0, 1),)

    def test_overlap_pattern_against_enumeration(self):
        v = gen_overlap_instance(1, seed=5)
        stats = arm_stats(v)
        expected = set()
        for m, arms in enumerate(v.arm_sets):
            best = max(arms, key=lambda i: stats.global_means[i])
            for i in arms:
                if i != best:
                    expected.add((best, i))
        assert set(confusion_pairs(v, stats)) == expected

    def test_rejects_inadmissible(self):
        v = make_instance([(0, 1)], {(0, 0): 1.0, (0, 1): 1.0})
        with pytest.raises(ValueError, match="inadmissible"):
            confusion_pairs(v)

    def test_pairs_stay_within_one_class(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = random_admissible_instance(rng)
            part = partition_arms(v)
            for i1, i2 in confusion_pairs(v):
                assert part.class_of[i1] == part.class_of[i2]


class TestPartition:
    def test_disjoint_sets(self):
        v = make_instance(
            [(0, 1), (2, 3)], {(0, 0): 1.0, (0, 1): 0.0, (1, 2): 1.0, (1, 3): 0.0}
        )
        part = partition_arms(v)
        assert part.classes == ((0, 1), (2, 3))
        assert part.class_of == (0, 0, 1, 1)

    def test_chained_overlap_merges(self):
        v = make_instance(
            [(0, 1), (1, 2)], {(0, 0): 2.0, (0, 1): 1.0, (1, 1): 1.0, (1, 2): 0.0}
        )
        assert partition_arms(v).classes == ((0, 1, 2),)

    def test_cyclic_triples_single_class(self):
        v = gen_overlap_instance(2, seed=0)
        assert partition_arms(v).classes == ((0, 1, 2, 3, 4),)

    def test_is_a_partition(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            v = random_admissible_instance(rng)
            part = partition_arms(v)
            flat = [i for c in part.classes for i in c]
            assert sorted(flat) == list(range(v.num_arms))
            for arms in v.arm_sets:
                classes = {part.class_of[i] for i in arms}
                assert len(classes) == 1

    def test_partition_is_finest(self):
        # each class is connected under co-residence edges, so no class can
        # be split without separating some client's arm set
        rng = np.random.default_rng(13)
        for _ in range(20):
            v = random_admissible_instance(rng)
            part = partition_arms(v)
            adjacency = {i: set() for i in range(v.num_arms)}
            for arms in v.arm_sets:
                for a in arms:
                    adjacency[a].update(set(arms) - {a})
            for cls in part.classes:
                reached = {cls[0]}
                frontier = [cls[0]]
                while frontier:
                    nxt = adjacency[frontier.pop()] - reached
                    reached |= nxt
                    frontier.extend(nxt)
                assert reached == set(cls)


class TestGenerators:
    def test_overlap_pattern_1_sets(self):
        v = gen_overlap_instance(1, seed=0)
        assert v.arm_sets == ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))

    def test_overlap_pattern_4_sets(self):
        v = gen_overlap_instance(4, seed=0)
        assert v.arm_sets == ((0, 1, 2, 3, 4),) * 5

    def test_overlap_means_in_bands_and_best_is_min_arm(self):
        for pattern in (1, 2, 3, 4):
            for seed in (0, 1, 2):
                v = gen_overlap_instance(pattern, seed=seed)
                for m, (arms, mus) in enumerate(zip(v.arm_sets, v.means)):
                    for i, mu in zip(arms, mus):
                        assert 6.0 - i <= mu <= 7.0 - i
                stats = arm_stats(v)
                assert stats.best_arms.tolist() == [min(s) for s in v.arm_sets]

    def test_overlap_deterministic_per_seed(self):
        assert gen_overlap_instance(2, seed=9) == gen_overlap_instance(2, seed=9)
        assert gen_overlap_instance(2, seed=9) != gen_overlap_instance(2, seed=10)

    def test_overlap_pattern_range(self):
        with pytest.raises(ValueError):
            gen_overlap_instance(5, seed=0)

    def test_hardness_rho_1(self):
        v = gen_hardness_instance(1.0, 3, 1, [(0, 1, 2)])
        assert v.means == ((1.0, 2.0, 3.0),)

    def test_hardness_rho_100(self):
        v = gen_hardness_instance(100.0, 2, 1, [(0, 1)])
        np.testing.assert_allclose(v.means, [(0.1, 0.2)])

    def test_hardness_min_gap(self):
        v = gen_hardness_instance(4.0, 3, 2, [(0, 1), (1, 2)])
        assert math.isclose(arm_stats(v).gaps.min(), 0.5)

    def test_hardness_scaling_relation(self):
        # multiplying rho by c^2 divides every mean and gap by c
        base = gen_hardness_instance(2.0, 3, 2, [(0, 1), (1, 2)])
        scaled = gen_hardness_instance(2.0 * 9.0, 3, 2, [(0, 1), (1, 2)])
        for row_b, row_s in zip(base.means, scaled.means):
            np.testing.assert_allclose(np.array(row_s) * 3.0, row_b, rtol=1e-12)
        np.testing.assert_allclose(
            arm_stats(scaled).gaps * 3.0, arm_stats(base).gaps, rtol=1e-12
        )

    def test_hardness_rejects_nonpositive_rho(self):
        with pytest.raises(ValueError):
            gen_hardness_instance(0.0, 2, 1, [(0, 1)])
        with pytest.raises(ValueError, match="^arm_sets length does not match num_clients$"):
            gen_hardness_instance(1.0, 2, 2, [(0, 1)])


class TestSerialization:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            v = random_admissible_instance(rng)
            assert from_json(to_json(v)) == v

    def test_serialized_indices_are_one_based(self):
        doc = json.loads(to_json(symmetric_two_arm()))
        assert doc["arm_sets"] == [[1, 2], [1, 2]]
        assert {rec["client"] for rec in doc["means"]} == {1, 2}
        assert {rec["arm"] for rec in doc["means"]} == {1, 2}

    def test_unknown_top_level_field_rejected(self):
        doc = json.loads(to_json(symmetric_two_arm()))
        doc["extra"] = 1
        with pytest.raises(ValueError, match="unknown instance fields"):
            from_json(json.dumps(doc))

    def test_unknown_mean_field_rejected(self):
        doc = json.loads(to_json(symmetric_two_arm()))
        doc["means"][0]["sigma"] = 1.0
        with pytest.raises(ValueError, match="unknown mean fields"):
            from_json(json.dumps(doc))

    def test_missing_field_rejected(self):
        doc = json.loads(to_json(symmetric_two_arm()))
        del doc["K"]
        with pytest.raises(ValueError, match="missing instance fields"):
            from_json(json.dumps(doc))

    def test_duplicate_mean_rejected(self):
        doc = json.loads(to_json(symmetric_two_arm()))
        doc["means"].append(dict(doc["means"][0]))
        with pytest.raises(ValueError, match="duplicate mean"):
            from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"doc": [1, 2]}, "instance JSON must be an object"),
            ({"K": 2.0}, "K and M must be integers"),
            ({"M": True}, "K and M must be integers"),
            ({"arm_sets": [[1, 2]]}, "arm_sets must be a list with one entry per client"),
            ({"arm_sets": {"1": [1, 2]}}, "arm_sets must be a list with one entry per client"),
            ({"arm_sets": [[1, 2], [1, 2.0]]}, "each arm set must be a list of integers"),
            ({"arm_sets": [[1, 2], 3]}, "each arm set must be a list of integers"),
            ({"means": {"client": 1, "arm": 1, "mu": 1.0}}, "means must be a list of records"),
        ],
        ids=["not-an-object", "float-K", "bool-M", "short-arm-sets", "arm-sets-object",
             "float-arm", "arm-set-not-a-list", "means-object"],
    )
    def test_malformed_document_rejected(self, change, message):
        doc = {**json.loads(to_json(symmetric_two_arm())), **change}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            from_json(json.dumps(doc.get("doc", doc)))

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            from_json("not json at all")

    @pytest.mark.parametrize("mu", [[1.0], None, 10**400, "1.0", True], ids=["list", "null", "huge-int", "string", "bool"])
    def test_non_number_mean_rejected(self, mu):
        doc = json.loads(to_json(symmetric_two_arm()))
        doc["means"][0]["mu"] = mu
        with pytest.raises(ValueError, match="mu"):
            from_json(json.dumps(doc))

    @pytest.mark.parametrize("field", ["client", "arm"])
    def test_bool_index_rejected(self, field):
        doc = json.loads(to_json(symmetric_two_arm()))
        doc["means"][0][field] = True  # would otherwise read as index 1
        with pytest.raises(ValueError, match="client/arm must be integers"):
            from_json(json.dumps(doc))

    def test_integer_mean_accepted(self):
        doc = json.loads(to_json(symmetric_two_arm()))
        doc["means"][0]["mu"] = 1
        assert from_json(json.dumps(doc)) == symmetric_two_arm()

    # Each malformed mean record of a 5-client instance and its message.  The
    # record stands in for the second mean of client 3, so clean records come
    # before and after it; "duplicate" repeats the first mean of client 1.
    BAD_RECORDS = {
        "bool-client": ({"client": True, "arm": 2, "mu": 1.5}, "mean record client/arm must be integers"),
        "bool-arm": ({"client": 3, "arm": True, "mu": 1.5}, "mean record client/arm must be integers"),
        "float-client": ({"client": 3.0, "arm": 2, "mu": 1.5}, "mean record client/arm must be integers"),
        "bool-mu": ({"client": 3, "arm": 2, "mu": True}, "mean record mu must be a number, got True"),
        "string-mu": ({"client": 3, "arm": 2, "mu": "1.5"}, "mean record mu must be a number, got '1.5'"),
        "list-mu": ({"client": 3, "arm": 2, "mu": [1.5]}, "mean record mu must be a number, got [1.5]"),
        "null-mu": ({"client": 3, "arm": 2, "mu": None}, "mean record mu must be a number, got None"),
        "huge-mu": ({"client": 3, "arm": 2, "mu": 10**400}, f"mean record mu {10**400} is too large for a float"),
        "extra-key": ({"client": 3, "arm": 2, "mu": 1.5, "sd": 1}, "unknown mean fields: ['sd']"),
        "missing-key": ({"client": 3, "arm": 2}, "missing mean fields: ['mu']"),
        "duplicate": ({"client": 1, "arm": 1, "mu": 1.5}, "duplicate mean for client 1, arm 1"),
        "non-object": ([3, 2, 1.5], "each means entry must be an object"),
    }

    @pytest.mark.parametrize("kind", sorted(BAD_RECORDS))
    def test_malformed_record_message_between_clean_records(self, kind):
        record, message = self.BAD_RECORDS[kind]
        instance = gen_overlap_instance(1, seed=0)
        doc = json.loads(to_json(instance))
        position = sum(len(s) for s in instance.arm_sets[:2]) + 1
        assert doc["means"][position]["client"] == 3
        doc["means"][position] = record
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            from_json(json.dumps(doc))

    def test_round_trip_on_generated_instances(self):
        rng = np.random.default_rng(5)
        instances = [gen_overlap_instance(p, seed=int(rng.integers(10**6))) for p in OVERLAP_PATTERNS]
        for _ in range(20):
            sets = random_admissible_instance(rng, max_arms=8, max_clients=6).arm_sets
            num_arms = 1 + max(max(s) for s in sets)
            instances.append(
                gen_hardness_instance(float(rng.uniform(0.5, 200)), num_arms, len(sets), sets)
            )
        for v in instances:
            text = to_json(v)
            assert "\n" not in text
            assert from_json(text) == v
            indented = {
                "K": v.num_arms,
                "M": v.num_clients,
                "arm_sets": [[i + 1 for i in s] for s in v.arm_sets],
                "means": [
                    {"client": m + 1, "arm": i + 1, "mu": mu}
                    for m, (arms, mus) in enumerate(zip(v.arm_sets, v.means))
                    for i, mu in zip(arms, mus)
                ],
            }
            assert json.loads(text) == json.loads(json.dumps(indented, indent=2))


def read_outcome(read, text):
    """What reading ``text`` gives: the instance as the reference writes it, or the error message."""
    try:
        return "instance", loop_to_json(read(text))
    except ValueError as exc:
        return "error", str(exc)


def seeded_instance(rng, num_arms, num_clients, sizes):
    """Random arm sets of sizes drawn from ``sizes`` and normal means; not necessarily valid."""
    sets = tuple(
        tuple(sorted(rng.choice(num_arms, size=int(rng.choice(sizes)), replace=False).tolist()))
        for _ in range(num_clients)
    )
    means = tuple(tuple(rng.normal(50.0, 20.0, len(s)).tolist()) for s in sets)
    return ProblemInstance(num_arms=num_arms, num_clients=num_clients, arm_sets=sets, means=means)


class TestDocumentsMatchLoops:
    """``to_json`` and ``from_json`` against the per-entry references in ``helpers``."""

    # (K, M, arm-set sizes): 3 slots, 25 slots, and the scale ``hetbai ingest``
    # writes for a 1000-client ratings table (about 4500 slots)
    SHAPES = {"3-slots": (3, 1, [3]), "25-slots": (9, 5, [5]), "ingest-scale": (200, 1000, [3, 4, 5, 6])}

    @staticmethod
    def mutations(rng, doc):
        """``(name, document)`` for each irregularity, placed at random positions."""
        means, sets = doc["means"], doc["arm_sets"]

        def at(position, record, replace):
            records = [dict(r) for r in means]
            records[position : position + replace] = [record]
            return {**doc, "means": records}

        for kind, (record, _) in sorted(TestSerialization.BAD_RECORDS.items()):
            for replace in (0, 1):
                yield f"{kind}-{'replaced' if replace else 'inserted'}", at(
                    int(rng.integers(len(means))), record, replace
                )
        p = int(rng.integers(len(means)))
        m = means[p]["client"] - 1
        outside = next(a for a in range(1, doc["K"] + 2) if a not in sets[m])
        yield "shuffled", {**doc, "means": [means[i] for i in rng.permutation(len(means))]}
        yield "dropped", {**doc, "means": means[:p] + means[p + 1 :]}
        yield "repeated", at(p, dict(means[p]), 0)
        yield "inaccessible", at(p, {"client": m + 1, "arm": outside, "mu": 1.0}, 0)
        yield "client-past-int64", at(p, {"client": 2**63, "arm": 1, "mu": 1.0}, 0)
        yield "no-such-client", at(p, {"client": doc["M"] + 1, "arm": 1, "mu": 1.0}, 0)
        yield "int-mu", at(p, {**means[p], "mu": int(rng.integers(-5, 100))}, 1)
        yield "huge-int-mu", at(p, {**means[p], "mu": 10**400}, 1)
        yield "nan-mu", at(p, {**means[p], "mu": math.nan}, 1)
        yield "inf-mu", at(p, {**means[p], "mu": -math.inf}, 1)
        yield "float-arm", at(p, {**means[p], "arm": float(means[p]["arm"])}, 1)
        for name, change in (
            ("reversed-set", lambda s: s[::-1]),
            ("repeated-arm", lambda s: s + s[:1]),
            ("arm-past-int64", lambda s: [*s[:-1], 10**30]),
        ):
            changed = [list(s) for s in sets]
            changed[m] = change(changed[m])
            yield name, {**doc, "arm_sets": changed}
        # client m's arm set out of order, with its records in the same order
        mine = [i for i, r in enumerate(means) if r["client"] == m + 1]
        lo, hi = mine[0], mine[-1] + 1
        for name, change in (("reversed", lambda s: s[::-1]), ("repeated", lambda s: s + s[:1])):
            changed = [list(s) for s in sets]
            changed[m] = change(changed[m])
            records = means[:lo] + change(means[lo:hi]) + means[hi:]
            yield f"{name}-set-and-records", {**doc, "arm_sets": changed, "means": records}
        yield "arm-set-of-bools", {**doc, "arm_sets": [[True, *s[1:]] for s in sets]}
        yield "no-records", {**doc, "means": []}

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_same_instance_or_message(self, shape):
        K, M, sizes = self.SHAPES[shape]
        rng = np.random.default_rng(sorted(self.SHAPES).index(shape) + 31)
        outcomes = set()
        for _ in range(3):
            v = seeded_instance(rng, K, M, sizes)
            text = to_json(v)
            assert text == loop_to_json(v)
            assert read_outcome(from_json, text) == ("instance", text)
            for name, doc in self.mutations(rng, json.loads(text)):
                mutated = json.dumps(doc)
                got = read_outcome(from_json, mutated)
                assert got == read_outcome(loop_from_json, mutated), name
                outcomes.add(got[0])
        assert outcomes == {"instance", "error"}

    @pytest.mark.parametrize(
        "row",
        [
            (1.5, 2),
            (np.float64(0.1), 3.0),
            (math.nan, 0.25),
            (math.inf, -math.inf),
            (-0.0, 1e-310),
            (True, 2**70),
        ],
        ids=["int", "numpy-float", "nan", "infinities", "signed-zero-subnormal", "bool-big-int"],
    )
    def test_to_json_bytes(self, row):
        v = ProblemInstance(num_arms=3, num_clients=2, arm_sets=((0, 2), (1, 2)), means=(row, row[::-1]))
        assert to_json(v) == loop_to_json(v)


class TestDocumentNormalizations:
    """What ``from_json`` reads a document as, through ``from_json`` and ``hetbai validate``."""

    @staticmethod
    def document(arm_sets, means, K=2):
        records = [{"client": m, "arm": a, "mu": mu} for (m, a), mu in means.items()]
        return json.dumps({"K": K, "M": len(arm_sets), "arm_sets": arm_sets, "means": records})

    def test_arm_sets_read_sorted_and_duplicate_free(self):
        text = self.document([[2, 1, 1], [1, 2]], {(1, 1): 1.0, (1, 2): 0.0, (2, 1): 1.0, (2, 2): 0.0})
        assert from_json(text).arm_sets == ((0, 1), (0, 1))
        assert from_json(text) == symmetric_two_arm()

    def test_integer_mean_read_as_float(self):
        text = self.document([[1, 2]], {(1, 1): 3, (1, 2): 0.5})
        assert from_json(text).means == ((3.0, 0.5),)
        assert type(from_json(text).means[0][0]) is float

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_literal_read_then_flagged(self, literal):
        text = self.document([[1, 2]], {(1, 1): 1.0, (1, 2): 0.5}).replace("1.0", literal)
        v = from_json(text)
        assert repr(v.means[0][0]) == repr(float(literal.lower().replace("infinity", "inf")))
        report = validate(v)
        assert not report.structurally_valid
        assert report.violations == ("client 1: non-finite mean for arm 1",)

    @pytest.mark.parametrize(
        "means, message",
        [
            ({(1, 1): 1.0, (2, 1): 1.0, (2, 2): 0.0}, "missing mean for client 1, arm 2"),
            ({(1, 1): 1.0, (1, 2): 0.0, (2, 1): 1.0, (2, 2): 0.0, (2, 3): 5.0},
             "mean given for inaccessible pair: client 2, arm 3"),
        ],
        ids=["missing", "inaccessible"],
    )
    def test_pair_messages(self, means, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            from_json(self.document([[1, 2], [1, 2]], means))

    # Indices past int64 keep their Python values: a message, never OverflowError.
    def test_arm_index_past_int64_is_a_violation(self, tmp_path, capsys):
        text = self.document([[1, 10**30]], {(1, 1): 1.0, (1, 10**30): 0.0})
        message = "client 1: arm index 1000000000000000000000000000000 outside 1..2"
        assert message in validate(from_json(text)).violations
        path = tmp_path / "v.json"
        path.write_text(text)
        assert dispatch(["validate", str(path)]) == 2
        out, err = capsys.readouterr()
        assert message in out.splitlines() and "Traceback" not in err

    def test_client_index_past_int64_is_an_inaccessible_pair(self, tmp_path, capsys):
        means = {(1, 1): 1.0, (1, 2): 0.0, (2, 1): 1.0, (2, 2): 0.0, (2**63, 1): 0.5}
        text = self.document([[1, 2], [1, 2]], means)
        message = "mean given for inaccessible pair: client 9223372036854775808, arm 1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            from_json(text)
        path = tmp_path / "v.json"
        path.write_text(text)
        assert dispatch(["validate", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestProblemInstanceApi:
    def test_mean_lookup(self):
        v = symmetric_two_arm()
        assert mean_of(v, 0, 0) == 1.0
        with pytest.raises(ValueError, match="not accessible"):
            mean_of(v, 0, 5)

    def test_with_means_replaces_only_given_entries(self):
        v = symmetric_two_arm()
        w = with_means(v, {(0, 0): 0.25})
        assert mean_of(w, 0, 0) == 0.25
        assert mean_of(w, 1, 0) == 1.0

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"arm_sets": ((0, 1),)}, "arm_sets length does not match num_clients"),
            ({"means": ((1.0, 0.0),)}, "means length does not match num_clients"),
            ({"means": ((1.0, 0.0), (1.0,))}, "client 2: means not aligned with arm set"),
            ({"arm_sets": ((0, 1), (1, 0))}, "client 2: arm set must be sorted and duplicate-free"),
            ({"arm_sets": ((0, 1), (1, 1))}, "client 2: arm set must be sorted and duplicate-free"),
        ],
        ids=["arm-sets-length", "means-length", "misaligned-row", "unsorted-set", "duplicate-arm"],
    )
    def test_constructor_rejects_inconsistent_fields(self, change, message):
        fields = {"num_arms": 2, "num_clients": 2, "arm_sets": ((0, 1), (0, 1)),
                  "means": ((1.0, 0.0), (1.0, 0.0)), **change}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ProblemInstance(**fields)

    def test_from_means_rejects_missing_mean(self):
        with pytest.raises(ValueError, match=r"^missing mean for client 2, arm 1$"):
            make_instance([(0, 1), (0, 1)], {(0, 0): 1.0, (0, 1): 0.0, (1, 1): 0.0})

    def test_pickle_round_trip_carries_fields_only(self):
        # a spawned sweep child receives the instance this way
        v = gen_overlap_instance(2, seed=3)
        slot_index(v)  # fills both cached properties
        assert {"_slots", "_violations"} <= v.__dict__.keys()
        copy = pickle.loads(pickle.dumps(v))
        assert copy == v
        assert "_slots" not in copy.__dict__ and "_violations" not in copy.__dict__
        assert np.array_equal(slot_index(copy).slot_arm, slot_index(v).slot_arm)

    def test_from_means_rejects_extraneous_entry(self):
        with pytest.raises(ValueError, match="inaccessible"):
            make_instance([(0, 1)], {(0, 0): 1.0, (0, 1): 0.0, (0, 2): 5.0}, num_arms=3)

    def test_total_arm_slots(self):
        assert slot_index(symmetric_two_arm()).num_slots == 4
        for p, expected in zip((1, 2, 3, 4), (10, 15, 20, 25)):
            assert sum(len(s) for s in OVERLAP_PATTERNS[p]) == expected
