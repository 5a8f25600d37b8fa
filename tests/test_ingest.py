import json

import numpy as np
import pytest

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


def test_dataset_validation():
    with pytest.raises(ValidationError, match="unique"):
        Dataset([True, False], [1.0, 2.0], np.zeros((2, 1)), unit_ids=[3, 3])
    with pytest.raises(ValidationError, match="non-finite"):
        Dataset([True, False], [1.0, np.nan], np.zeros((2, 1)))


def test_single_arm_rejected_at_estimation():
    data = Dataset([True, True], [1.0, 2.0], np.zeros((2, 1)))
    with pytest.raises(ValidationError, match="treated and one control"):
        data.require_both_arms("naive_diff")


def test_merge_counts_and_ids():
    a = parse_table("1 1 10\n0 2 20\n", TOY_SCHEMA)
    b = parse_table("1 3 30\n0 4 40\n", TOY_SCHEMA)
    merged = merge(a, b, keep="all")
    assert len(merged) == 4
    assert list(merged.unit_ids) == [0, 1, 2, 3]
    assert len(merge(a, b, keep="treated_only")) == 2  # a's treated + b's controls


def test_merge_retained_counts_add_up():
    a = parse_table("1 1 10\n0 2 20\n1 5 50\n", TOY_SCHEMA)
    b = parse_table("0 4 40\n0 6 60\n", TOY_SCHEMA)
    merged = merge(a, b, keep="treated_only")
    assert len(merged) == a.n_treated + b.n_control


def test_merge_empty_identity():
    a = parse_table("1 1 10\n0 2 20\n", TOY_SCHEMA)
    empty = parse_table("", TOY_SCHEMA)
    merged = merge(a, empty, keep="all")
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


def test_fetch_detects_tampered_cache(tmp_path):
    opener, _ = _fake_opener(b"1 2 3\n")
    fetch_dataset("cps_controls", tmp_path, opener=opener)
    (tmp_path / "cps_controls.txt").write_text("9 9 9\n")
    with pytest.raises(IntegrityError):
        fetch_dataset("cps_controls", tmp_path, opener=opener)


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
