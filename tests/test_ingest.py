import csv
import math
import os
import re

import numpy as np
import pytest

from hetbai import build_instance, ingest, parse_ratings, validate
from hetbai.ingest import RatingsTable

from helpers import left_to_right_sum, loop_build_instance, loop_parse_ratings, mean_of

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
MINI_RATINGS = os.path.join(DATA_DIR, "mini_ratings.csv")


def write_csv(tmp_path, text):
    path = tmp_path / "ratings.csv"
    path.write_text(text)
    return str(path)


def make_table(*triples):
    """A parsed table with no skipped lines, from ``(client, arm, rating)`` rows."""
    return RatingsTable(
        clients=tuple(c for c, _, _ in triples),
        arms=tuple(a for _, a, _ in triples),
        ratings=[float(r) for _, _, r in triples],
        skipped=(),
    )


def rows_of(table):
    """The table's ``(client, arm, rating)`` rows, read from its columns."""
    return list(zip(table.clients, table.arms, table.ratings.tolist()))


class TestParseRatings:
    def test_well_formed(self, tmp_path):
        path = write_csv(tmp_path, "client,arm,rating\na,x,1.5\na,y,2\nb,x,3\n")
        table = parse_ratings(path)
        assert len(table.ratings) == 3
        assert table.skipped == ()
        assert rows_of(table)[0] == ("a", "x", 1.5)

    def test_non_numeric_rating_skipped_with_line_number(self, tmp_path):
        path = write_csv(tmp_path, "client,arm,rating\na,x,1\na,y,soup\nb,x,3\n")
        table = parse_ratings(path)
        assert len(table.ratings) == 2
        assert table.skipped == ((3, "non-numeric rating 'soup'"),)

    def test_duplicate_rows_kept_as_samples(self, tmp_path):
        path = write_csv(tmp_path, "client,arm,rating\na,x,1\na,x,2\na,x,2\n")
        table = parse_ratings(path)
        assert len(table.ratings) == 3

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
        assert len(table.ratings) == 1
        assert [line for line, _ in table.skipped] == [2, 3]

    def test_lines_numbered_where_each_record_starts(self, tmp_path):
        path = write_csv(tmp_path, 'client,arm,rating\n"multi\nline",x,1\na,x,soup\nb,x,2\n')
        expected = ((2, "line break in client or arm label"), (4, "non-numeric rating 'soup'"))
        table = parse_ratings(path)
        assert table.skipped == expected
        assert rows_of(table) == [("b", "x", 2.0)]
        assert loop_parse_ratings(path) == ([("b", "x", 2.0)], list(expected))

    def test_quoted_rating_over_two_lines_accepted_on_its_first(self, tmp_path):
        path = write_csv(tmp_path, 'client,arm,rating\na,x,"1.5\n"\nb,y, 2 \nb,x,soup\n')
        expected = ((5, "non-numeric rating 'soup'"),)
        table = parse_ratings(path)
        assert table.skipped == expected
        assert rows_of(table) == [("a", "x", 1.5), ("b", "y", 2.0)]
        assert loop_parse_ratings(path) == (rows_of(table), list(expected))

    @pytest.mark.parametrize("bad", ["stray-quote", "long-label"])
    def test_oversized_field_names_the_line_it_starts_on(self, tmp_path, bad):
        # A stray opening quote makes one field of the rest of the file; the CSV
        # reader rejects any field longer than its limit, at the record's start.
        limit = csv.field_size_limit()
        rows = "".join(f"c{k},x,{k}\n" for k in range(limit // 6))
        record = 'b,y,"2\n' if bad == "stray-quote" else f"b,{'y' * (limit + 1)},2\n"
        path = write_csv(tmp_path, "client,arm,rating\na,x,1\n" + record + rows)
        message = rf"^line 3: field larger than field limit \({limit}\)$"
        with pytest.raises(ValueError, match=message):
            parse_ratings(path)

    @pytest.mark.parametrize(
        "pair",
        [("c0", "2.5,b,c,d,1"), ("c0,a0,1,c1,a1", "3"), ("c0,a0,1,\0,p", "7")],
        ids=["one-then-five", "five-then-one", "nul-field"],
    )
    def test_lines_of_wrong_arity_never_pair_up(self, tmp_path, pair):
        # each pair has six fields: split together, a record would straddle them
        path = write_csv(tmp_path, "client,arm,rating\na,x,1\n" + "\n".join(pair) + "\n")
        table = parse_ratings(path)
        assert rows_of(table) == [("a", "x", 1.0)]
        assert [line for line, _ in table.skipped] == [3, 4]
        assert (rows_of(table), list(table.skipped)) == loop_parse_ratings(path)

    def test_undecodable_byte_reported_as_a_streamed_read_reports_it(self, tmp_path):
        # the decoder counts positions from the start of the block it decodes
        path = tmp_path / "ratings.csv"
        path.write_bytes(b"client,arm,rating\n" + b"a,x,1\n" * 5000 + b"a,\xff,1\n")
        with pytest.raises(UnicodeDecodeError) as expected:
            loop_parse_ratings(str(path))
        with pytest.raises(UnicodeDecodeError) as caught:
            parse_ratings(str(path))
        assert str(caught.value) == str(expected.value)

    def test_utf8_bom_accepted(self, tmp_path):
        path = tmp_path / "ratings.csv"
        path.write_bytes("client,arm,rating\na,x,1\n".encode("utf-8-sig"))
        table = parse_ratings(str(path))
        assert rows_of(table) == [("a", "x", 1.0)]

    def test_read_only_columns(self, tmp_path):
        path = write_csv(tmp_path, "client,arm,rating\na,x,1.5\nb , y,2\n")
        table = parse_ratings(path)
        assert table.clients == ("a", "b") and table.arms == ("x", "y")
        assert table.ratings.tolist() == [1.5, 2.0]
        with pytest.raises(ValueError):
            table.ratings[0] = 0.0

    def test_columns_must_align(self):
        with pytest.raises(ValueError, match="differ in length"):
            RatingsTable(clients=("a",), arms=("x", "y"), ratings=[1.0], skipped=())


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
        table = make_table(*([("a", "x", i) for i in range(1, 11)]
                             + [("a", "y", i + 2) for i in range(1, 11)]
                             + [("a", "z", 5)] * 9))
        result = build_instance(table, min_samples=10)
        assert result.arm_labels == ("x", "y")
        assert any("a/z: 9 samples" in msg for msg in result.dropped)

    def test_client_reduced_to_one_arm_dropped(self):
        table = make_table(*([("a", "x", i) for i in range(1, 11)]
                             + [("a", "y", 12 - i) for i in range(1, 11)]
                             + [("b", "x", 3)] * 10
                             + [("b", "w", 4)] * 5))
        result = build_instance(table, min_samples=10)
        assert result.client_labels == ("a",)
        assert any("client b: fewer than 2 arms" in msg for msg in result.dropped)
        assert result.arm_labels == ("x", "y")
        assert validate(result.instance).admissible

    def test_summation_order_tie_rejected(self):
        # x rated 1..10 and y rated 10..1 have equal raw means; the ingested
        # means differ only by summation order (50.0 against 49.999999999999986)
        table = make_table(*([("a", "x", i) for i in range(1, 11)]
                             + [("a", "y", 11 - i) for i in range(1, 11)]))
        with pytest.raises(ValueError, match="client 1: best arm 1 and arm 2 .* rounding error"):
            build_instance(table, min_samples=10)

    def test_dropped_clients_and_orphaned_arm_reported_in_order(self):
        # b and c each lose a sparse pair and keep one arm; dropping them
        # orphans arm v, and no other client's arm count changes
        table = make_table(*([("a", "x", 4)] * 10 + [("a", "y", 2)] * 10
                             + [("b", "x", 3)] * 10 + [("b", "w", 1)] * 5
                             + [("c", "v", 5)] * 10 + [("c", "z", 1)] * 3))
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
        table = make_table(("a", "x", 1), ("a", "y", 2))
        with pytest.raises(ValueError, match="survive"):
            build_instance(table, min_samples=10)

    def test_tied_means_rejected(self):
        # x and y tie at the top of the only client's arm set
        table = make_table(*([("a", "x", 5)] * 10 + [("a", "y", 5)] * 10 + [("a", "z", 1)] * 10))
        with pytest.raises(ValueError, match="not admissible"):
            build_instance(table, min_samples=10)
        # with every surviving rating equal there is no range to normalize by
        table = make_table(*([("a", "x", 5)] * 10 + [("a", "y", 5)] * 10))
        with pytest.raises(ValueError, match="^all surviving ratings are identical; cannot"):
            build_instance(table, min_samples=10)

    def test_surviving_pairs_have_enough_samples(self):
        table = parse_ratings(MINI_RATINGS)
        result = build_instance(table, min_samples=10)
        counts = {}
        for pair in zip(table.clients, table.arms):
            counts[pair] = counts.get(pair, 0) + 1
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
        table = make_table(*[(c, a, r) for (c, a), vals in raw.items() for r in vals])
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
        table = make_table(("a", "x", 1), ("a", "y", 2), ("a", "x", 2))
        result = build_instance(table, min_samples=1)
        assert result.instance.num_arms == 2
        assert validate(result.instance).admissible

    def test_bad_parameters(self):
        table = make_table(("a", "x", 1), ("a", "y", 2))
        with pytest.raises(ValueError):
            build_instance(table, min_samples=0)


def random_ratings_text(rng: np.random.Generator, min_samples: int) -> str:
    """A ratings CSV with shuffled rows, padded fields, and every kind of rejected line.

    Pair sizes straddle ``min_samples``; ratings are sometimes whole stars,
    so ties and a constant table occur.  Among the odd rows, a quoted rating
    spanning two lines, a rating padded with spaces and a rating ending in
    ``\x1c`` (which ``str.strip`` removes and ``float`` does not skip) are
    accepted.
    """
    stars = rng.random() < 0.3
    lines = []
    for c in range(int(rng.integers(1, 6))):
        for a in range(int(rng.integers(1, 6))):
            if rng.random() < 0.3:
                continue
            level = rng.normal(0.0, 2.0)
            for _ in range(max(0, min_samples + int(rng.integers(-2, 3)))):
                x = float(np.round(rng.normal(level, 1.0))) if stars else float(rng.normal(level, 1.0))
                client, arm = f"c{c}", f"a{a}"
                if rng.random() < 0.2:
                    client, arm = f" {client}", f"{arm}\t"
                rating = rng.choice([repr(x), f"{x:.3e}", f" {x} "])
                lines.append(f"{client},{arm},{rating}")
    junk = ["", "c0", "c0,a0", "c0,a0,1,2", ",a0,1", "c1, ,2", "c0,a0,soup", "c0,a0,inf",
            "c1,a1,nan", "c1,a0,-Infinity", '"c0\nx",a0,1', 'c0,"a\r\n0",1', 'c0,a0,"so\nup"',
            'c0,a0,"1.5\n"', "c1,a1,   2.5   ", "c0,a1,3\x1c"]
    lines += list(rng.choice(junk, size=int(rng.integers(0, 8))))
    order = rng.permutation(len(lines))
    return "client,arm,rating\n" + "\n".join(lines[k] for k in order) + "\n"


def plain_ratings_text(rng: np.random.Generator, limit: int) -> str:
    """A quote-free ratings table: mostly what the split tokenizer takes, sometimes not quite.

    Lines end in ``\\n`` or ``\\r\\n``; some tables have no final line break,
    blank lines, rejected lines, or fields padded with characters
    ``str.strip`` removes: ``\\xa0``, and ``\\x1c``, ``\\x85`` and
    ``\\u2028`` among them, which ``str.splitlines`` would split at and the
    file iterator does not.  A few mix the two endings, hold a lone ``\\r``
    or a NUL, or have a line longer than ``limit`` (with or without a field
    that long), which leaves the table to the CSV reader.
    """
    ending = str(rng.choice(["\n", "\r\n"]))
    padding = [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\xa0", "\x85", "\u2028", "\u3000"]
    padded = rng.random() < 0.3
    lines = []
    for _ in range(int(rng.integers(0, 80)) if rng.random() < 0.95 else 0):
        fields = [f"c{rng.integers(3)}", f"a{rng.integers(4)}", repr(float(rng.normal(0.0, 2.0)))]
        if padded and rng.random() < 0.5:
            k = int(rng.integers(3))
            fields[k] = rng.choice(padding) + fields[k] + rng.choice(["", *padding])
        lines.append(",".join(fields))
    junk = ["", "c0", "c0,a0", "c0,a0,1,2", ",a0,1", "c1, ,2", "c1,\xa0,2", "c0,a0,soup",
            "c0,a0,inf", "c1,a1,nan", "c1,a0,-Infinity", "c0,a1,1e999", " c0 , a1 , 2.5 ",
            "c0,a1,3\x1c", "\xa0c2,a0\xa0,1.5", "c0\x85,a1,1_0", ",", "  "]
    if rng.random() < 0.5:
        for line in rng.choice(junk, size=int(rng.integers(1, 5))):
            lines.insert(int(rng.integers(len(lines) + 1)), str(line))
    if lines and rng.random() < 0.1:  # longer than the limit, in one field or over many
        long = f"c9,{'x' * (limit + 1)},1" if rng.random() < 0.5 else ",".join(["c9"] * limit)
        lines.insert(int(rng.integers(len(lines) + 1)), long)
    text = "client,arm,rating" + "".join(ending + line for line in lines)
    if rng.random() < 0.8:
        text += ending
    if lines and rng.random() < 0.15:  # a lone line break, a NUL, or the other ending
        at = int(rng.integers(text.index(ending) + len(ending), len(text) + 1))
        flaw = rng.choice(["\r", "\n", "\0", "\r\n" if ending == "\n" else "\n"])
        text = text[:at] + flaw + text[at:]
    return text


class TestSplitTokenizerMatchesCsvReader:
    """``str.split`` on plain tables against the CSV reader, through the per-row reference."""

    def test_plain_tables(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(43)
        path = tmp_path / "ratings.csv"
        split_plain, add_bulk = ingest._split_plain, ingest._add_bulk
        plain, bulk = [], []

        def spy_split(text):
            columns = split_plain(text)
            plain.append(columns is not None)
            return columns

        def spy_bulk(*args):
            bulk.append(add_bulk(*args))
            return bulk[-1]

        monkeypatch.setattr(ingest, "_split_plain", spy_split)
        monkeypatch.setattr(ingest, "_add_bulk", spy_bulk)
        limit = 64
        previous = csv.field_size_limit(limit)
        try:
            for _ in range(400):
                # chunks of a few lines, so tables span several
                monkeypatch.setattr(ingest, "_CHUNK_CHARS", int(rng.integers(40, 400)))
                path.write_bytes(plain_ratings_text(rng, limit).encode("utf-8"))
                try:
                    rows, skipped = loop_parse_ratings(str(path))
                except ValueError as exc:
                    with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                        parse_ratings(str(path))
                    continue
                except csv.Error as exc:  # the record of the long field, on one line
                    with open(path, encoding="utf-8", newline="") as fh:
                        line = next(k for k, text in enumerate(fh, 1) if "x" * limit in text)
                    with pytest.raises(ValueError, match=f"^line {line}: {re.escape(str(exc))}$"):
                        parse_ratings(str(path))
                    continue
                table = parse_ratings(str(path))
                assert table.skipped == tuple(skipped)
                assert rows_of(table) == rows
        finally:
            csv.field_size_limit(previous)
        assert len(plain) == 400
        assert 0.6 * len(plain) < sum(plain) < len(plain)
        assert 0 < sum(bulk) < len(bulk)


class TestLabelCodes:
    @pytest.mark.parametrize("labels", [[], ["b"], ["b", "a"], ["x", "y", "x", "w", "y"]])
    def test_codes_match_the_dict_loop(self, labels):
        # 0 and 1 labels are the cases one itemgetter call cannot take
        names, codes = ingest._codes(labels)
        position = {}
        for name in sorted(set(labels)):
            position[name] = len(position)
        assert names == list(position)
        assert codes.dtype == np.int64 and codes.tolist() == [position[n] for n in labels]

    @pytest.mark.parametrize("rows", [1, 2])
    def test_one_and_two_row_tables(self, tmp_path, rows):
        lines = ["client,arm,rating"] + [f"c{k},a{k},{k + 1}" for k in range(rows)]
        path = tmp_path / "ratings.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        table = parse_ratings(str(path))
        for labels in (table.clients, table.arms):
            names, codes = ingest._codes(labels)
            assert names == sorted(set(labels))
            assert codes.tolist() == [names.index(n) for n in labels]


class TestColumnarIngestMatchesRowReference:
    """The columnar ingest against the per-row reference in ``helpers``."""

    def test_random_tables(self, tmp_path):
        rng = np.random.default_rng(41)
        path = tmp_path / "ratings.csv"
        built = 0
        for _ in range(300):
            min_samples = int(rng.integers(1, 6))
            path.write_text(random_ratings_text(rng, min_samples))
            try:
                rows, skipped = loop_parse_ratings(str(path))
            except ValueError as exc:
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    parse_ratings(str(path))
                continue
            table = parse_ratings(str(path))
            assert table.skipped == tuple(skipped)
            assert rows_of(table) == rows
            try:
                clients, arms, dropped, arm_sets, means = loop_build_instance(rows, min_samples)
            except ValueError as exc:
                with pytest.raises(ValueError) as caught:
                    build_instance(table, min_samples=min_samples)
                assert str(caught.value) == str(exc)
                continue
            try:
                result = build_instance(table, min_samples=min_samples)
            except ValueError as exc:
                assert "not admissible" in str(exc)
                continue
            built += 1
            assert result.client_labels == clients and result.arm_labels == arms
            assert result.dropped == dropped
            v = result.instance
            assert v.arm_sets == tuple(tuple(s) for s in arm_sets)
            got = [mu for row in v.means for mu in row]
            want = [means[(m, i)] for m, arms_m in enumerate(v.arm_sets) for i in arms_m]
            assert np.array(got).tobytes() == np.array(want).tobytes()
        assert built > 100

    def test_means_sum_in_file_order(self):
        # x is rated 10, 9, ..., 1 and y always 1, so x's normalized ratings
        # are 100, 88.9, ..., 0; added left to right they give 499.99999999999986,
        # while the correctly rounded sum is 500
        ratings = list(range(10, 0, -1))
        table = make_table(*[("a", "x", r) for r in ratings], *[("a", "y", 1)] * 10)
        normalized = [0.0 + (r - 1) * (100.0 / 9) for r in ratings]
        in_order = left_to_right_sum(normalized) / 10
        assert in_order != math.fsum(normalized) / 10
        result = build_instance(table, min_samples=10)
        assert result.instance.means == ((in_order, 0.0),)
