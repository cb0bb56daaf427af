"""Regression comparator: thresholds, noise bands, direction, CLI exit."""

import pytest

from repro.obs.bench import BENCH_SCHEMA, metric, wrap_payload, write_json
from repro.obs.regress import (
    attribute_sets,
    attribute_spans,
    collect_bench_files,
    compare_main,
    compare_metric,
    compare_payload_pair,
    compare_sets,
    diff_profiles,
    gating_regressions,
    provenance_mismatches,
    render_table,
    set_provenance_warnings,
    summarize,
)


def _payload(scenario, **metrics):
    return wrap_payload(BENCH_SCHEMA, {"scenario": scenario, "metrics": metrics})


# ----------------------------------------------------------------------
# Threshold logic: regression / improvement / within-noise
# ----------------------------------------------------------------------
def test_flat_threshold_regression_on_deterministic_metric():
    old = metric(100, "ejections", direction="lower")
    new = metric(110, "ejections", direction="lower")
    delta = compare_metric("s", "ejections_total", old, new)
    assert delta.status == "regression"
    assert delta.gating is True
    assert delta.worse_by == pytest.approx(0.10)


def test_improvement_is_classified_not_gated():
    old = metric(100, "ejections", direction="lower")
    new = metric(80, "ejections", direction="lower")
    delta = compare_metric("s", "ejections_total", old, new)
    assert delta.status == "improvement"
    assert not delta.is_regression


def test_within_flat_threshold_is_ok():
    old = metric(100, "ejections", direction="lower")
    new = metric(101, "ejections", direction="lower")
    assert compare_metric("s", "e", old, new).status == "ok"


def test_recorded_iqr_widens_the_noise_band():
    # +10% on a metric whose IQR was 8% of the old value: with
    # IQR_FACTOR=2 the allowance is 2% + 16% = 18%, so this is noise...
    old = metric(1.0, "s", direction="lower", kind="time", iqr=0.08)
    new = metric(1.10, "s", direction="lower", kind="time", iqr=0.0)
    assert compare_metric("s", "wall", old, new).status == "ok"
    # ...while the same delta with a tight IQR is a real regression.
    old_tight = metric(1.0, "s", direction="lower", kind="time", iqr=0.005)
    assert compare_metric("s", "wall", old_tight, new).status == "regression"


def test_iqr_taken_from_either_side():
    old = metric(1.0, "s", direction="lower", kind="time", iqr=0.0)
    new = metric(1.10, "s", direction="lower", kind="time", iqr=0.08)
    assert compare_metric("s", "wall", old, new).status == "ok"


def test_direction_higher_is_better():
    old = metric(1000, "ops/s", direction="higher", kind="time")
    slower = metric(800, "ops/s", direction="higher", kind="time")
    faster = metric(1300, "ops/s", direction="higher", kind="time")
    assert compare_metric("s", "tput", old, slower).status == "regression"
    assert compare_metric("s", "tput", old, faster).status == "improvement"


def test_time_metrics_gate_only_with_gate_time():
    old = metric(1.0, "s", direction="lower", kind="time")
    new = metric(2.0, "s", direction="lower", kind="time")
    ungated = compare_metric("s", "wall", old, new, gate_time=False)
    gated = compare_metric("s", "wall", old, new, gate_time=True)
    assert ungated.is_regression and not ungated.gating
    assert gated.is_regression and gated.gating
    assert gating_regressions([ungated]) == []
    assert gating_regressions([gated]) == [gated]


def test_added_and_removed_metrics_do_not_gate():
    entry = metric(1.0, "s")
    added = compare_metric("s", "m", None, entry)
    removed = compare_metric("s", "m", entry, None)
    assert added.status == "added" and removed.status == "removed"
    assert not added.gating and not removed.gating


# ----------------------------------------------------------------------
# Payload / set comparison and rendering
# ----------------------------------------------------------------------
def test_compare_payload_pair_covers_metric_union():
    old = _payload("s", a=metric(1, "x"), b=metric(2, "x"))
    new = _payload("s", b=metric(2, "x"), c=metric(3, "x"))
    statuses = {d.name: d.status for d in compare_payload_pair(old, new)}
    assert statuses == {"a": "removed", "b": "ok", "c": "added"}


def test_compare_sets_flags_missing_scenarios():
    old = {"s1": _payload("s1", m=metric(1, "x"))}
    new = {"s2": _payload("s2", m=metric(1, "x"))}
    deltas = compare_sets(old, new)
    statuses = {(d.scenario, d.status) for d in deltas}
    assert ("s1", "removed") in statuses and ("s2", "added") in statuses


def test_render_table_lists_moves_and_summary_counts():
    old = _payload("s", e=metric(100, "ejections"), w=metric(1.0, "s", kind="time"))
    new = _payload("s", e=metric(150, "ejections"), w=metric(1.0, "s", kind="time"))
    deltas = compare_payload_pair(old, new)
    table = render_table(deltas)
    assert "| scenario | metric |" in table
    assert "REGRESSION" in table and "+50.0%" in table
    assert "w" not in [line.split("|")[2].strip() for line in table.splitlines()[2:]]
    assert "1 regressed" in summarize(deltas)


def test_render_table_verbose_includes_ok_rows():
    old = _payload("s", e=metric(100, "ejections"))
    deltas = compare_payload_pair(old, old)
    assert "| e |" in render_table(deltas, verbose=True)
    assert "within noise" in render_table(deltas, verbose=False)


# ----------------------------------------------------------------------
# Files and CLI entry
# ----------------------------------------------------------------------
def _write_set(directory, scenario, **metrics):
    directory.mkdir(parents=True, exist_ok=True)
    write_json(
        str(directory / f"BENCH_{scenario}.json"), _payload(scenario, **metrics)
    )


def test_collect_bench_files_from_dir_and_file(tmp_path):
    _write_set(tmp_path / "run", "slack", m=metric(1, "x"))
    _write_set(tmp_path / "run", "warp", m=metric(1, "x"))
    by_dir = collect_bench_files(str(tmp_path / "run"))
    assert set(by_dir) == {"slack", "warp"}
    by_file = collect_bench_files(str(tmp_path / "run" / "BENCH_slack.json"))
    assert set(by_file) == {"slack"}
    with pytest.raises((OSError, FileNotFoundError)):
        collect_bench_files(str(tmp_path / "empty"))


def test_compare_main_exit_codes(tmp_path, capsys):
    _write_set(tmp_path / "old", "slack", e=metric(100, "ejections"))
    _write_set(tmp_path / "new", "slack", e=metric(100, "ejections"))
    assert compare_main(str(tmp_path / "old"), str(tmp_path / "new"),
                        fail_on_regress=True) == 0

    _write_set(tmp_path / "bad", "slack", e=metric(200, "ejections"))
    # A doctored regression must exit non-zero with a readable table.
    code = compare_main(str(tmp_path / "old"), str(tmp_path / "bad"),
                        fail_on_regress=True)
    out = capsys.readouterr().out
    assert code == 1
    assert "REGRESSION" in out and "| slack | e |" in out
    # ...and without --fail-on-regress it reports but exits zero.
    assert compare_main(str(tmp_path / "old"), str(tmp_path / "bad")) == 0


def test_compare_main_bad_input_is_a_usage_error(tmp_path):
    assert compare_main(str(tmp_path / "nope"), str(tmp_path / "nope")) == 2


# ----------------------------------------------------------------------
# Error paths: schema versions, missing metrics, empty directories
# ----------------------------------------------------------------------
def test_collect_bench_files_rejects_mismatched_schema_version(tmp_path):
    import json

    payload = _payload("slack", m=metric(1, "x"))
    payload["schema_version"] = 999
    run = tmp_path / "run"
    run.mkdir()
    (run / "BENCH_slack.json").write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="schema version"):
        collect_bench_files(str(run))


def test_collect_bench_files_rejects_wrong_schema(tmp_path):
    import json

    run = tmp_path / "run"
    run.mkdir()
    (run / "BENCH_x.json").write_text(json.dumps({"schema": "other.thing"}))
    with pytest.raises(ValueError, match="expected schema"):
        collect_bench_files(str(run))


def test_collect_bench_files_empty_directory_raises(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(FileNotFoundError, match="no BENCH_"):
        collect_bench_files(str(empty))


def test_metric_in_old_missing_in_new_is_removed_not_an_error():
    old = {"s": _payload("s", gone=metric(1, "x"), kept=metric(2, "x"))}
    new = {"s": _payload("s", kept=metric(2, "x"))}
    statuses = {d.name: d.status for d in compare_sets(old, new)}
    assert statuses["gone"] == "removed" and statuses["kept"] == "ok"
    # A removed metric never gates: CI should flag it, not hard-fail.
    assert gating_regressions(compare_sets(old, new)) == []


def test_compare_main_mixed_schema_versions_exit_2(tmp_path, capsys):
    import json

    _write_set(tmp_path / "old", "slack", m=metric(1, "x"))
    new_dir = tmp_path / "new"
    new_dir.mkdir()
    payload = _payload("slack", m=metric(1, "x"))
    payload["schema_version"] = 999
    (new_dir / "BENCH_slack.json").write_text(json.dumps(payload))
    assert compare_main(str(tmp_path / "old"), str(new_dir)) == 2
    assert "schema version 999" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Provenance warnings (satellite: cpu_count joins the envelope)
# ----------------------------------------------------------------------
def test_bench_envelope_carries_cpu_count():
    import os

    payload = _payload("s", m=metric(1, "x"))
    assert payload["cpu_count"] == os.cpu_count()


def test_provenance_mismatch_warns_per_field():
    old = _payload("s", m=metric(1, "x"))
    new = dict(_payload("s", m=metric(1, "x")), cpu_count=1, python="2.7.0")
    old = dict(old, cpu_count=64, python="3.11.0")
    warnings = provenance_mismatches(old, new)
    assert len(warnings) == 2
    assert any("cpu_count" in w for w in warnings)
    assert any("python" in w for w in warnings)


def test_provenance_missing_field_does_not_warn():
    # Baselines recorded before cpu_count existed must not churn.
    old = _payload("s", m=metric(1, "x"))
    old.pop("cpu_count")
    new = dict(_payload("s", m=metric(1, "x")), cpu_count=1)
    assert not any("cpu_count" in w for w in provenance_mismatches(old, new))


def test_set_provenance_warnings_prefixes_scenarios():
    old = {"s1": dict(_payload("s1"), cpu_count=64)}
    new = {"s1": dict(_payload("s1"), cpu_count=1)}
    warnings = set_provenance_warnings(old, new)
    assert len(warnings) == 1 and warnings[0].startswith("s1: ")


# ----------------------------------------------------------------------
# Span-level attribution
# ----------------------------------------------------------------------
def _profile(**spans):
    return {
        "spans": {
            path: {"calls": 2, "cum_seconds": self_s, "self_seconds": self_s}
            for path, self_s in spans.items()
        }
    }


def test_diff_profiles_sorts_guiltiest_first():
    deltas = diff_profiles(
        _profile(driver=0.2, slack=0.5, mindist=0.1),
        _profile(driver=1.0, slack=0.4, mindist=0.3),
    )
    assert [d.path for d in deltas] == ["driver", "mindist", "slack"]
    assert deltas[0].delta_self == pytest.approx(0.8)
    assert deltas[-1].delta_self == pytest.approx(-0.1)


def test_attribute_spans_names_shares_and_growth():
    old = dict(_payload("s"), profile=_profile(driver=0.2, slack=0.2))
    new = dict(_payload("s"), profile=_profile(driver=1.0, slack=0.4))
    lines = attribute_spans(old, new)
    assert lines[0].startswith("span attribution")
    assert "driver" in lines[1] and "+800.00ms self" in lines[1]
    assert "80% of the slowdown" in lines[1] and "+400% vs old" in lines[1]
    assert "calls 2 -> 2" in lines[1]


def test_attribute_spans_without_profiles_is_silent():
    assert attribute_spans(_payload("s"), _payload("s")) == []
    old = dict(_payload("s"), profile=_profile(driver=0.5))
    new = dict(_payload("s"), profile=_profile(driver=0.5))
    assert attribute_spans(old, new) == []  # nothing slowed down


def test_attribute_sets_only_covers_regressed_time_scenarios():
    old = {
        "slow": dict(
            _payload("slow", wall=metric(1.0, "s", kind="time")),
            profile=_profile(driver=0.2),
        ),
        "fine": dict(
            _payload("fine", wall=metric(1.0, "s", kind="time")),
            profile=_profile(driver=0.2),
        ),
    }
    new = {
        "slow": dict(
            _payload("slow", wall=metric(2.0, "s", kind="time")),
            profile=_profile(driver=1.2),
        ),
        "fine": dict(
            _payload("fine", wall=metric(1.0, "s", kind="time")),
            profile=_profile(driver=0.2),
        ),
    }
    deltas = compare_sets(old, new)
    lines = attribute_sets(old, new, deltas)
    assert lines and lines[0] == "slow:"
    assert any("driver" in line for line in lines)
    assert not any("fine" in line for line in lines)


def test_compare_main_prints_provenance_and_attribution(tmp_path, capsys):
    import json

    old_dir, new_dir = tmp_path / "old", tmp_path / "new"
    old_dir.mkdir(), new_dir.mkdir()
    old = dict(
        _payload("slack", wall=metric(1.0, "s", kind="time")),
        profile=_profile(driver=0.2),
        cpu_count=64,
    )
    new = dict(
        _payload("slack", wall=metric(2.0, "s", kind="time")),
        profile=_profile(driver=1.2),
        cpu_count=1,
    )
    (old_dir / "BENCH_slack.json").write_text(json.dumps(old))
    (new_dir / "BENCH_slack.json").write_text(json.dumps(new))
    assert compare_main(str(old_dir), str(new_dir)) == 0
    out = capsys.readouterr().out
    assert "provenance mismatch: cpu_count differs" in out
    assert "span attribution" in out and "driver" in out
