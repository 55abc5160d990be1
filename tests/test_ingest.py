import os

import numpy as np
import pytest

from hetbai import build_instance, parse_ratings, validate
from hetbai.ingest import RatingsRow, RatingsTable

from helpers import mean_of

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
MINI_RATINGS = os.path.join(DATA_DIR, "mini_ratings.csv")


def write_csv(tmp_path, text):
    path = tmp_path / "ratings.csv"
    path.write_text(text)
    return str(path)


def rows(*triples):
    return tuple(RatingsRow(client=c, arm=a, rating=float(r)) for c, a, r in triples)


class TestParseRatings:
    def test_well_formed(self, tmp_path):
        path = write_csv(tmp_path, "client,arm,rating\na,x,1.5\na,y,2\nb,x,3\n")
        table = parse_ratings(path)
        assert len(table.rows) == 3
        assert table.skipped == ()
        assert table.rows[0] == RatingsRow(client="a", arm="x", rating=1.5)

    def test_non_numeric_rating_skipped_with_line_number(self, tmp_path):
        path = write_csv(tmp_path, "client,arm,rating\na,x,1\na,y,soup\nb,x,3\n")
        table = parse_ratings(path)
        assert len(table.rows) == 2
        assert table.skipped == ((3, "non-numeric rating 'soup'"),)

    def test_duplicate_rows_kept_as_samples(self, tmp_path):
        path = write_csv(tmp_path, "client,arm,rating\na,x,1\na,x,2\na,x,2\n")
        table = parse_ratings(path)
        assert len(table.rows) == 3

    def test_wrong_header_rejected(self, tmp_path):
        path = write_csv(tmp_path, "user,item,score\na,x,1\n")
        with pytest.raises(ValueError, match="expected header"):
            parse_ratings(path)

    def test_empty_table_rejected(self, tmp_path):
        path = write_csv(tmp_path, "client,arm,rating\n")
        with pytest.raises(ValueError, match="no valid rating rows"):
            parse_ratings(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            parse_ratings(str(tmp_path / "nope.csv"))

    def test_wrong_arity_and_empty_labels_skipped(self, tmp_path):
        path = write_csv(tmp_path, "client,arm,rating\na,x\n,y,2\na,x,1\n")
        table = parse_ratings(path)
        assert len(table.rows) == 1
        assert [line for line, _ in table.skipped] == [2, 3]


class TestBuildInstance:
    def test_mini_fixture_hand_computed(self):
        table = parse_ratings(MINI_RATINGS)
        result = build_instance(table, min_samples=10)
        assert result.client_labels == ("north", "south")
        assert result.arm_labels == ("alpha", "beta")
        v = result.instance
        assert v.arm_sets == ((0, 1), (0, 1))
        # normalization maps rating x to 25 * (x - 1); per-pair means are exact
        assert v.means == ((50.0, 20.0), (90.0, 50.0))
        assert any("south/gamma: 9 samples" in msg for msg in result.dropped)

    def test_pair_below_min_samples_dropped(self):
        table = RatingsTable(
            rows=rows(*([("a", "x", i) for i in range(1, 11)]
                        + [("a", "y", i + 2) for i in range(1, 11)]
                        + [("a", "z", 5)] * 9)),
            skipped=(),
        )
        result = build_instance(table, min_samples=10)
        assert result.arm_labels == ("x", "y")
        assert any("a/z: 9 samples" in msg for msg in result.dropped)

    def test_client_reduced_to_one_arm_dropped(self):
        table = RatingsTable(
            rows=rows(*([("a", "x", i) for i in range(1, 11)]
                        + [("a", "y", 12 - i) for i in range(1, 11)]
                        + [("b", "x", 3)] * 10
                        + [("b", "w", 4)] * 5)),
            skipped=(),
        )
        result = build_instance(table, min_samples=10)
        assert result.client_labels == ("a",)
        assert any("client b: fewer than 2 arms" in msg for msg in result.dropped)
        assert result.arm_labels == ("x", "y")
        assert validate(result.instance).admissible

    def test_summation_order_tie_rejected(self):
        # x rated 1..10 and y rated 10..1 have equal raw means; the ingested
        # means differ only by summation order (50.0 against 49.999999999999986)
        table = RatingsTable(
            rows=rows(*([("a", "x", i) for i in range(1, 11)]
                        + [("a", "y", 11 - i) for i in range(1, 11)])),
            skipped=(),
        )
        with pytest.raises(ValueError, match="client 1: best arm 1 and arm 2 .* rounding error"):
            build_instance(table, min_samples=10)

    def test_dropped_clients_and_orphaned_arm_reported_in_order(self):
        # b and c each lose a sparse pair and keep one arm; dropping them
        # orphans arm v, and no other client's arm count changes
        table = RatingsTable(
            rows=rows(*([("a", "x", 4)] * 10 + [("a", "y", 2)] * 10
                        + [("b", "x", 3)] * 10 + [("b", "w", 1)] * 5
                        + [("c", "v", 5)] * 10 + [("c", "z", 1)] * 3)),
            skipped=(),
        )
        result = build_instance(table, min_samples=10)
        assert result.client_labels == ("a",)
        assert result.arm_labels == ("x", "y")
        assert result.dropped == (
            "pair b/w: 5 samples (fewer than 10)",
            "pair c/z: 3 samples (fewer than 10)",
            "client b: fewer than 2 arms after filtering",
            "client c: fewer than 2 arms after filtering",
            "arm v: no owning client after filtering",
        )

    def test_nothing_survives_is_an_error(self):
        table = RatingsTable(rows=rows(("a", "x", 1), ("a", "y", 2)), skipped=())
        with pytest.raises(ValueError, match="survive"):
            build_instance(table, min_samples=10)

    def test_tied_means_rejected(self):
        # x and y tie at the top of the only client's arm set
        table = RatingsTable(
            rows=rows(*([("a", "x", 5)] * 10 + [("a", "y", 5)] * 10 + [("a", "z", 1)] * 10)),
            skipped=(),
        )
        with pytest.raises(ValueError, match="not admissible"):
            build_instance(table, min_samples=10)

    def test_surviving_pairs_have_enough_samples(self):
        table = parse_ratings(MINI_RATINGS)
        result = build_instance(table, min_samples=10)
        counts = {}
        for row in table.rows:
            counts[(row.client, row.arm)] = counts.get((row.client, row.arm), 0) + 1
        for m, label_c in enumerate(result.client_labels):
            for i in result.instance.arm_sets[m]:
                assert counts[(label_c, result.arm_labels[i])] >= 10

    def test_deterministic(self):
        table = parse_ratings(MINI_RATINGS)
        a = build_instance(table, min_samples=10)
        b = build_instance(table, min_samples=10)
        assert a.instance == b.instance
        assert a.client_labels == b.client_labels and a.arm_labels == b.arm_labels

    def test_normalization_preserves_argmax(self):
        rng = np.random.default_rng(0)
        raw = {}
        for c in "abc":
            for a in "xyz":
                raw[(c, a)] = rng.uniform(1.0, 5.0, size=12).tolist()
        table = RatingsTable(
            rows=rows(*[(c, a, r) for (c, a), vals in raw.items() for r in vals]),
            skipped=(),
        )
        result = build_instance(table, min_samples=10)
        # the affine normalization cannot reorder any client's per-pair means
        for m, c in enumerate(result.client_labels):
            pair_means = {
                result.arm_labels[i]: mean_of(result.instance, m, i)
                for i in result.instance.arm_sets[m]
            }
            raw_means = {a: float(np.mean(raw[(c, a)])) for a in "xyz"}
            assert max(pair_means, key=pair_means.get) == max(raw_means, key=raw_means.get)
            ranked = sorted(pair_means, key=pair_means.get)
            assert ranked == sorted(raw_means, key=raw_means.get)

    def test_min_samples_one_keeps_everything(self):
        table = RatingsTable(
            rows=rows(("a", "x", 1), ("a", "y", 2), ("a", "x", 2)), skipped=()
        )
        result = build_instance(table, min_samples=1)
        assert result.instance.num_arms == 2
        assert validate(result.instance).admissible

    def test_bad_parameters(self):
        table = RatingsTable(rows=rows(("a", "x", 1), ("a", "y", 2)), skipped=())
        with pytest.raises(ValueError):
            build_instance(table, min_samples=0)
        with pytest.raises(ValueError):
            build_instance(table, min_samples=1, normalize_range=(5.0, 5.0))
