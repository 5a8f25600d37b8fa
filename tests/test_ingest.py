import hashlib
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attdiag.errors import (
    FetchError,
    IntegrityError,
    MergeError,
    ParseError,
    ValidationError,
)
from attdiag.ingest import (
    NSW_SCHEMA,
    SchemaSpec,
    Dataset,
    fetch_dataset,
    merge,
    parse_table,
)

TOY_SCHEMA = SchemaSpec(
    column_names=("treat", "x", "y"),
    treatment_column="treat",
    outcome_column="y",
    covariate_columns=("x",),
)


def test_parse_three_nsw_rows():
    text = (
        "1 37 11 1 0 1 1 0 0 9930.05\n"
        "0 22 9 0 1 0 1 0 3595.89 6071.79\n"
        "1 30 12 1 0 0 0 0 0 24909.45\n"
    )
    data = parse_table(text, NSW_SCHEMA)
    assert len(data) == 3
    assert data.n_treated == 2
    assert data.outcome[1] == pytest.approx(6071.79)
    assert data.covariates[0, 0] == 37  # age
    assert data.unit_ids[2] == 2


def test_parse_arity_mismatch_reports_line():
    with pytest.raises(ParseError, match="line 2"):
        parse_table("1 2 3\n1 2\n", TOY_SCHEMA)


def test_parse_non_numeric_names_column():
    with pytest.raises(ParseError, match="'y'.*'NA'"):
        parse_table("1 2 NA\n", TOY_SCHEMA)


def test_parse_rejects_nonbinary_treatment():
    with pytest.raises(ValidationError, match="treatment"):
        parse_table("2 1 3\n", TOY_SCHEMA)


def test_parse_error_counts_blank_lines():
    # Line numbers are physical: the blank line 2 counts.
    with pytest.raises(ParseError, match="line 3: expected 3 fields, got 2"):
        parse_table("1 2 3\n\n1 2\n", TOY_SCHEMA)
    with pytest.raises(ParseError, match="line 4, column 'x'"):
        parse_table("1 2 3\r\n  \t\r\n0 4 5\r\n1 x 6\r\n", TOY_SCHEMA)


def test_parse_comment_line_is_a_parse_error():
    with pytest.raises(ParseError, match="line 2: expected 3 fields, got 2"):
        parse_table("1 2 3\n# note\n0 4 5\n", TOY_SCHEMA)
    with pytest.raises(ParseError, match="line 1, column 'treat': could not parse '#'"):
        parse_table("# 2 3\n", TOY_SCHEMA)


@pytest.mark.parametrize("text", ["", "\n\n", " \t\r\n"])
def test_parse_blank_input_is_empty(text, recwarn):
    data = parse_table(text, TOY_SCHEMA)
    assert len(data) == 0 and data.covariates.shape == (0, 1)
    assert len(recwarn) == 0


@pytest.mark.parametrize("token", ["1_000", "NA", "0x10", "1d5", "1,5", "--1", "\u0663",
                                   "\uff11", "'1'", "1\x00"])
def test_parse_rejected_token_names_line_and_column(token):
    # 1_000 and the non-ASCII digits are numbers to float() but not to the
    # table reader.
    with pytest.raises(ParseError) as info:
        parse_table(f"1 2 3\n0 5 {token}\n", TOY_SCHEMA)
    assert str(info.value) == f"line 2, column 'y': could not parse {token!r}"


def test_parse_rows_end_only_at_newlines():
    # \r and \r\n end a row like \n; a vertical tab or form feed separates
    # fields.
    data = parse_table("1 2 3\r0 4 5\r\n1 6\x0b7\n0\x0c8 9", TOY_SCHEMA)
    assert data.treated.tolist() == [True, False, True, False]
    assert data.outcome.tolist() == [3.0, 5.0, 7.0, 9.0]
    with pytest.raises(ParseError, match="line 1: expected 3 fields, got 6"):
        parse_table("1 2 3\x0b0 4 5\n", TOY_SCHEMA)


def test_parse_reports_first_bad_line_of_any_kind():
    with pytest.raises(ValidationError, match="line 2: treatment value 0.5"):
        parse_table("1 2 3\n0.5 2 3\n1 2 x\n", TOY_SCHEMA)
    with pytest.raises(ParseError, match="line 2, column 'x'"):
        parse_table("1 2 3\n1 x 3\n2 2 3\n", TOY_SCHEMA)


_TOKENS = ("0", "1", "-2.5", "1e3", "nan", "inf", "1_0", "x", "", "\u0663", ".")


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(st.lists(st.sampled_from(_TOKENS), max_size=4), max_size=6),
       seps=st.lists(st.sampled_from([" ", "\t", "  ", "\x0b"]), min_size=24, max_size=24),
       ends=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=6, max_size=6))
def test_parse_accepts_or_raises_a_located_error(lines, seps, ends):
    text = "".join(
        "".join(tok + seps[4 * i + j] for j, tok in enumerate(row)) + ends[i]
        for i, row in enumerate(lines))
    try:
        data = parse_table(text, TOY_SCHEMA)
    except ParseError as exc:
        assert str(exc).startswith("line ")
        return
    except ValidationError as exc:
        assert str(exc).startswith(("line ", "non-finite"))
        return
    rows = [[float(tok) for tok in row.split()] for row in text.replace("\r\n", "\n")
            .replace("\r", "\n").split("\n") if row.split()]
    assert data.treated.tolist() == [row[0] == 1.0 for row in rows]
    assert data.covariates[:, 0].tolist() == [row[1] for row in rows]
    assert data.outcome.tolist() == [row[2] for row in rows]


def test_dataset_validation():
    with pytest.raises(ValidationError, match="unique"):
        Dataset([True, False], [1.0, 2.0], np.zeros((2, 1)), unit_ids=[3, 3])
    with pytest.raises(ValidationError, match="non-finite"):
        Dataset([True, False], [1.0, np.nan], np.zeros((2, 1)))


@pytest.mark.parametrize("ids", [[5, 2, 9, 0], [7], [], [-3, 4, 10**12]])
def test_dataset_accepts_unique_ids_in_any_order(ids):
    n = len(ids)
    data = Dataset(np.arange(n) % 2 == 0, np.zeros(n), np.zeros((n, 1)), unit_ids=ids)
    assert list(data.unit_ids) == ids


@pytest.mark.parametrize("ids", [
    [0, 1, 1, 2],     # sorted, duplicates adjacent
    [4, 0, 9, 4, 2],  # unsorted, duplicates apart
    [3, 2, 1, 3],     # descending apart from the duplicate
])
def test_dataset_rejects_duplicate_ids_in_any_order(ids):
    n = len(ids)
    with pytest.raises(ValidationError, match="unit_ids must be unique"):
        Dataset(np.arange(n) % 2 == 0, np.zeros(n), np.zeros((n, 1)), unit_ids=ids)


def test_single_arm_rejected_at_estimation():
    data = Dataset([True, True], [1.0, 2.0], np.zeros((2, 1)))
    with pytest.raises(ValidationError, match="treated and one control"):
        data.require_both_arms("naive_diff")


def test_arm_counts_equal_the_flags_on_every_constructor_path():
    direct = Dataset([True, False, False, True, False], np.arange(5.0), np.zeros((5, 1)))
    table = parse_table("1 1 10\n0 2 20\n1 5 50\n0 6 60\n", TOY_SCHEMA)
    other = parse_table("0 4 40\n1 3 30\n0 7 70\n", TOY_SCHEMA)
    built = {
        "direct": direct,
        "subset mask": direct.subset(direct.treated),
        "subset indices": direct.subset([1, 2, 4]),
        "empty subset": direct.subset(np.array([], dtype=int)),
        "take_with_fresh_ids": direct.take_with_fresh_ids([0, 0, 3, 1]),
        "parse_table": table,
        "merge": merge(table, other),
        "empty table": parse_table("", TOY_SCHEMA),
        "no units": Dataset([], []),
    }
    for path, data in built.items():
        treated = int(data.treated.sum())
        assert (data.n_treated, data.n_control) == (treated, len(data) - treated), path
        assert type(data.n_treated) is int and type(data.n_control) is int, path
    assert (built["merge"].n_treated, built["merge"].n_control) == (2, 2)
    assert (built["no units"].n_treated, built["no units"].n_control) == (0, 0)


@pytest.mark.parametrize("name", ["n_treated", "n_control"])
def test_arm_counts_are_read_only(name):
    data = Dataset([True, False], [1.0, 2.0])
    with pytest.raises(AttributeError):
        setattr(data, name, 5)
    assert getattr(data, name) == 1


@pytest.mark.parametrize("treated, counts", [
    ([True, True, True], "got 3 treated, 0 control"),
    ([False, False], "got 0 treated, 2 control"),
    ([], "got 0 treated, 0 control"),
])
def test_require_both_arms_names_both_counts(treated, counts):
    data = Dataset(treated, np.zeros(len(treated)))
    with pytest.raises(ValidationError, match=f"att_ipw requires .*\\({counts}\\)"):
        data.require_both_arms("att_ipw")


def test_merge_counts_and_ids():
    a = parse_table("1 1 10\n0 2 20\n1 5 50\n", TOY_SCHEMA)
    b = parse_table("1 3 30\n0 4 40\n", TOY_SCHEMA)
    merged = merge(a, b)  # a's treated, then b's controls
    assert list(merged.unit_ids) == [0, 1, 2]
    assert merged.treated.tolist() == [True, True, False]
    assert merged.outcome.tolist() == [10.0, 50.0, 40.0]


def test_merge_retained_counts_add_up():
    a = parse_table("1 1 10\n0 2 20\n1 5 50\n", TOY_SCHEMA)
    b = parse_table("0 4 40\n0 6 60\n", TOY_SCHEMA)
    merged = merge(a, b)
    assert len(merged) == a.n_treated + b.n_control


def test_merge_empty_identity():
    a = parse_table("1 1 10\n1 2 20\n", TOY_SCHEMA)
    empty = parse_table("", TOY_SCHEMA)
    merged = merge(a, empty)
    np.testing.assert_array_equal(merged.outcome, a.outcome)
    np.testing.assert_array_equal(merged.unit_ids, a.unit_ids)


def test_merge_schema_mismatch():
    a = parse_table("1 1 10\n", TOY_SCHEMA)
    other = SchemaSpec(("treat", "z", "y"), "treat", "y", ("z",))
    b = parse_table("0 1 10\n", other)
    with pytest.raises(MergeError):
        merge(a, b)


def test_schema_invariants():
    with pytest.raises(ValidationError):
        SchemaSpec(("treat", "y"), "treat", "y", ())  # no covariates
    with pytest.raises(ValidationError):
        SchemaSpec(("treat", "x", "y"), "treat", "y", ("missing",))


# --- fetch machinery (exercised through an injected transport) -------------


def _fake_opener(payload: bytes):
    calls = {"n": 0}

    def opener(url, timeout):
        calls["n"] += 1
        return payload

    return opener, calls


def test_fetch_populates_cache_and_manifest(tmp_path):
    opener, calls = _fake_opener(b"1 2 3\n")
    text = fetch_dataset("psid_controls", tmp_path, opener=opener)
    assert text == "1 2 3\n"
    assert calls["n"] == 1
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert "psid_controls" in manifest
    assert len(manifest["psid_controls"]["sha256"]) == 64


def test_fetch_idempotent_on_warm_cache(tmp_path):
    opener, calls = _fake_opener(b"1 2 3\n")
    first = fetch_dataset("psid_controls", tmp_path, opener=opener)

    def exploding_opener(url, timeout):
        raise AssertionError("network touched on warm cache")

    second = fetch_dataset("psid_controls", tmp_path, opener=exploding_opener)
    assert first == second
    assert calls["n"] == 1


def test_fetch_cold_cache_offline_errors(tmp_path):
    with pytest.raises(FetchError):
        fetch_dataset("nsw_treated", tmp_path, offline=True)


def test_fetch_network_failure_cold_cache(tmp_path):
    def failing_opener(url, timeout):
        raise OSError("no route to host")

    with pytest.raises(FetchError, match="no route"):
        fetch_dataset("nsw_treated", tmp_path, opener=failing_opener)


@pytest.mark.parametrize("failure", ["offline", "download", "unusable_cache"])
def test_fetch_errors_say_whether_the_file_is_just_not_cached(tmp_path, failure):
    def failing_opener(url, timeout):
        raise OSError("no route to host")

    cache = tmp_path / "cache"
    if failure == "unusable_cache":
        cache.write_text("not a directory\n")
    with pytest.raises(FetchError) as raised:
        fetch_dataset("nsw_treated", cache, offline=failure == "offline", opener=failing_opener)
    # Worker processes send errors back pickled; the flag goes with them.
    copy = pickle.loads(pickle.dumps(raised.value))
    assert raised.value.not_cached is copy.not_cached is (failure != "unusable_cache")


def test_fetch_detects_tampered_cache(tmp_path):
    opener, _ = _fake_opener(b"1 2 3\n")
    fetch_dataset("cps_controls", tmp_path, opener=opener)
    (tmp_path / "cps_controls.txt").write_text("9 9 9\n")
    with pytest.raises(IntegrityError):
        fetch_dataset("cps_controls", tmp_path, opener=opener)


def test_fetch_records_a_preseeded_file_and_checks_it_later(tmp_path):
    (tmp_path / "nsw_treated.txt").write_bytes(b"1 2 3\n")
    assert fetch_dataset("nsw_treated", tmp_path, offline=True) == "1 2 3\n"
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["nsw_treated"]["sha256"] == hashlib.sha256(b"1 2 3\n").hexdigest()
    assert manifest["nsw_treated"]["url"].endswith("nswre74_treated.txt")
    (tmp_path / "nsw_treated.txt").write_bytes(b"9 9 9\n")
    with pytest.raises(IntegrityError):
        fetch_dataset("nsw_treated", tmp_path, offline=True)


def test_fetch_download_replaces_the_record_of_a_removed_file(tmp_path):
    fetch_dataset("cps_controls", tmp_path, opener=_fake_opener(b"1 2 3\n")[0])
    (tmp_path / "cps_controls.txt").unlink()
    assert fetch_dataset("cps_controls", tmp_path,
                         opener=_fake_opener(b"4 5 6\n")[0]) == "4 5 6\n"
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["cps_controls"]["sha256"] == hashlib.sha256(b"4 5 6\n").hexdigest()


@pytest.mark.parametrize("manifest", [
    b'{"nsw_treated": ', b'["nsw_treated"]', b'{"nsw_treated": {"url": "x"}}',
    b'{"nsw_treated": "abc"}', b'{"nsw_treated": {"sha256": 7}}', b"\xff\xfe"],
    ids=["not_json", "a_list", "no_sha256", "entry_not_an_object", "sha256_not_text",
         "not_utf8"])
def test_a_damaged_manifest_is_an_integrity_error(tmp_path, manifest):
    (tmp_path / "nsw_treated.txt").write_bytes(b"1 2 3\n")
    (tmp_path / "manifest.json").write_bytes(manifest)
    with pytest.raises(IntegrityError, match="manifest.json damaged"):
        fetch_dataset("nsw_treated", tmp_path, offline=True)
    assert (tmp_path / "manifest.json").read_bytes() == manifest


def test_fetch_unknown_source(tmp_path):
    with pytest.raises(ValidationError, match="unknown source"):
        fetch_dataset("mystery", tmp_path)


def test_concurrent_fetches_serialize_on_one_download(tmp_path):
    import threading
    import time as _time

    calls = []

    def slow_opener(url, timeout):
        calls.append(url)
        _time.sleep(0.05)
        return b"7 7 7\n"

    results = []

    def work():
        results.append(fetch_dataset("psid_controls", tmp_path, opener=slow_opener))

    threads = [threading.Thread(target=work) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(calls) == 1  # the advisory lock let exactly one thread download
    assert results == ["7 7 7\n"] * 4
