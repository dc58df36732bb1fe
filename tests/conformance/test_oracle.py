"""The differential oracle: diffing, config matrix, and typed failures."""

from __future__ import annotations

import dataclasses

import pytest

from repro.conformance.oracle import (
    PipelineConfig,
    comparable_payload,
    default_configs,
    diff_jsonable,
    diff_reports,
    ensure_reports_identical,
    run_config,
    run_differential,
)
from repro.conformance.scenarios import generate_rows, selftest_scenario
from repro.core.pipeline import AnalysisPipeline
from repro.errors import ConfigError, ConformanceError

SCENARIO = selftest_scenario(11, bundles=60)


@pytest.fixture(scope="module")
def serial_report():
    from repro.conformance.scenarios import build_store

    return AnalysisPipeline().analyze_store(
        build_store(generate_rows(SCENARIO))
    )


def test_diff_jsonable_finds_nested_differences():
    left = {"a": [1, {"x": 1.0}], "b": "same"}
    right = {"a": [1, {"x": 2.0}], "b": "same"}
    diffs = diff_jsonable(left, right)
    assert len(diffs) == 1
    assert diffs[0].path == "$.a[1].x"
    assert diffs[0].left == 1.0 and diffs[0].right == 2.0


def test_diff_jsonable_is_type_strict():
    assert diff_jsonable({"x": 1}, {"x": 1.0})
    assert not diff_jsonable({"x": 1.0}, {"x": 1.0})


def test_diff_jsonable_reports_missing_keys_and_length():
    diffs = diff_jsonable({"a": 1}, {"b": 1})
    assert {d.path for d in diffs} == {"$.a", "$.b"}
    assert diff_jsonable([1, 2], [1, 2, 3])


def test_comparable_payload_coerces_financials_to_float(serial_report):
    payload = comparable_payload(serial_report)
    assert payload["detections"], "seed-11 scenario must detect sandwiches"
    for detection in payload["detections"]:
        assert isinstance(detection["victim_loss_quote"], float)
        assert isinstance(detection["attacker_gain_quote"], float)


def test_comparable_payload_orders_detections(serial_report):
    payload = comparable_payload(serial_report)
    keys = [
        (d["landed_at"], d["bundle_id"]) for d in payload["detections"]
    ]
    assert keys == sorted(keys)


def test_diff_reports_identical_in_both_modes(serial_report):
    for mode in ("exact", "contract"):
        verdict = diff_reports(
            serial_report, serial_report, "a", "b", mode=mode
        )
        assert verdict.identical, verdict.render()


def test_ensure_reports_identical_raises_with_structured_diff(serial_report):
    tampered = dataclasses.replace(
        serial_report,
        quantified=[
            dataclasses.replace(
                serial_report.quantified[0],
                victim_loss_quote=(
                    serial_report.quantified[0].victim_loss_quote + 1.0
                ),
            ),
            *serial_report.quantified[1:],
        ],
    )
    with pytest.raises(ConformanceError) as excinfo:
        ensure_reports_identical(
            serial_report, tampered, "serial", "tampered", mode="contract"
        )
    diff = excinfo.value.diff
    assert diff is not None and not diff.identical
    assert any(
        "victim_loss_quote" in entry.path for entry in diff.differences
    )


def test_pipeline_config_validation():
    with pytest.raises(ConfigError):
        PipelineConfig(name="bad", mode="warp").validate()
    with pytest.raises(ConfigError):
        PipelineConfig(name="bad", jobs=0).validate()
    with pytest.raises(ConfigError):
        PipelineConfig(name="bad", chunk_size=-1).validate()
    with pytest.raises(ConfigError):
        PipelineConfig(
            name="bad", mode="resume", kill_fraction=1.5
        ).validate()


def test_default_configs_cover_the_matrix():
    names = [config.mode for config in default_configs(jobs=2)]
    assert names == ["serial", "parallel", "incremental", "resume", "stream"]
    exact = [c for c in default_configs() if c.exact_comparable]
    assert {c.mode for c in exact} == {"serial", "parallel", "stream"}


def test_run_differential_matrix_is_identical(tmp_path):
    configs = default_configs(jobs=2)
    result = run_differential(SCENARIO, tmp_path, configs=configs)
    assert result.identical, result.render()
    # One diff per non-baseline config, each against the serial baseline.
    assert len(result.diffs) == len(configs) - 1
    result.raise_on_divergence()


def test_run_config_rejects_unknown_mode(tmp_path):
    with pytest.raises(ConfigError):
        run_config(
            generate_rows(SCENARIO),
            PipelineConfig(name="x", mode="warp"),
            tmp_path,
        )
