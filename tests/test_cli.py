"""Pipeline wiring: stage ordering, artifact determinism, and report shape."""

import gc
import itertools
import json
from pathlib import Path

import pytest

from revaudit.cli import main


def run(capsys, *args) -> tuple[int, str, str]:
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def simulated(tmp_path, capsys):
    config = tmp_path / "gen.json"
    config.write_text(json.dumps({"n_submissions": 400, "citation_bias": 0.3}))
    code, _, err = run(
        capsys, "simulate", "--workdir", str(tmp_path),
        "--policy", "EC_LIKE", "--seed", "3", "--config", str(config),
    )
    assert code == 0, err
    return tmp_path


def test_pipeline_recovers_planted_effect(simulated, capsys):
    wd = str(simulated)
    assert run(capsys, "extract-citations", "--workdir", wd)[0] == 0
    assert run(capsys, "filter", "--workdir", wd)[0] == 0
    code, out, err = run(capsys, "analyze", "--parametric", "--workdir", wd)
    assert code == 0, err
    fit = json.loads((simulated / "fit.json").read_text())
    lo, hi = fit["ci95"]
    assert lo <= 0.3 <= hi
    assert "citation effect" in out


def test_analyze_without_filter_is_missing_artifact(simulated, capsys):
    code, _, err = run(capsys, "analyze", "--parametric", "--workdir", str(simulated))
    assert code == 1
    payload = json.loads(err)
    assert payload["error"]["type"] == "MissingArtifactError"
    assert "filter" in payload["error"]["message"]


def test_unknown_flag_reports_usage_error_json(tmp_path, capsys):
    code, _, err = run(capsys, "ingest", "--workdir", str(tmp_path), "--bogus")
    assert code == 2
    payload = json.loads(err)
    assert payload["error"]["type"] == "UsageError"


def test_missing_input_files_reported(tmp_path, capsys):
    code, _, err = run(capsys, "ingest", "--workdir", str(tmp_path))
    assert code == 1
    assert json.loads(err)["error"]["type"] == "MissingArtifactError"


@pytest.mark.parametrize("args, code", [
    (("simulate", "--policy", "EC_LIKE", "--seed", "1", "--config", "{wd}/gen.json"), 0),
    (("ingest",), 1),
    (("ingest", "--bogus"), 2),
], ids=["success", "toolkit-error", "usage-error"])
@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_main_restores_the_cyclic_collector(tmp_path, capsys, args, code, enabled):
    (tmp_path / "gen.json").write_text(json.dumps({"n_submissions": 12, "n_reviewers": 8}))
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        result = run(capsys, *(arg.format(wd=tmp_path) for arg in args), "--workdir", str(tmp_path))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert result[0] == code, result[2]


def test_artifacts_are_byte_identical_across_reruns(tmp_path, capsys):
    def run_all(workdir: Path):
        config = workdir / "gen.json"
        config.write_text(json.dumps({"n_submissions": 120, "citation_bias": 0.2}))
        for args in (
            ("simulate", "--policy", "EC_LIKE", "--seed", "11", "--config", str(config)),
            ("ingest",),
            ("extract-citations",),
            ("filter",),
            ("analyze", "--parametric"),
            ("diagnostics",),
            ("effect-size",),
            ("report",),
        ):
            code, _, err = run(capsys, *args, "--workdir", str(workdir))
            assert code == 0, (args, err)

    first = tmp_path / "one"
    second = tmp_path / "two"
    first.mkdir()
    second.mkdir()
    run_all(first)
    run_all(second)
    names = [
        "venue.json", "reviewers.jsonl", "submissions.jsonl", "reviews.jsonl",
        "references.jsonl", "ground_truth.json", "relation.json",
        "analysis.jsonl", "filter_report.json", "exclusions.csv",
        "missingness.json", "fit.json", "residuals.csv", "qq.csv",
        "ranking.json", "ranking.csv", "report.json", "report.txt",
    ]
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_report_shape_and_totals(simulated, capsys):
    wd = str(simulated)
    run(capsys, "extract-citations", "--workdir", wd)
    run(capsys, "filter", "--workdir", wd)
    run(capsys, "analyze", "--parametric", "--workdir", wd)
    code, out, err = run(capsys, "report", "--workdir", wd)
    assert code == 0, err
    for label in (
        "Analysis", "# Submissions", "# Reviewers", "# (S, R)-pairs",
        "Test Statistic", "Test Statistic (95% CI)", "P value",
    ):
        assert label in out
    report = json.loads((simulated / "report.json").read_text())
    filt = json.loads((simulated / "filter_report.json").read_text())
    block = report["reports"][0]
    assert block["n_submissions"] == filt["eligible_submissions"]
    assert block["n_pairs"] == filt["retained_pairs"]
    assert block["analysis"] == "parametric"
    assert "on 5-point scale" in out


def test_nonparametric_cli_path(tmp_path, capsys):
    config = tmp_path / "gen.json"
    config.write_text(json.dumps({
        "n_submissions": 400, "reviewers_per_paper": 5, "citation_bias": 0.4,
        "citation_prevalence": 0.45,
        "expertise_weights": [0.05, 0.15, 0.4, 0.4],
        "confidence_weights": [0.1, 0.2, 0.4, 0.3],
        "text_overlap_sd": 0.06, "bid_weights": [0.15, 0.55, 0.3],
        "seniority_rate": 0.75,
    }))
    wd = str(tmp_path)
    assert run(capsys, "simulate", "--workdir", wd, "--policy", "ICML_LIKE",
               "--seed", "21", "--config", str(config))[0] == 0
    assert run(capsys, "extract-citations", "--workdir", wd)[0] == 0
    assert run(capsys, "filter", "--workdir", wd)[0] == 0
    code, out, err = run(capsys, "analyze", "--nonparametric", "--seed", "5",
                         "--workdir", wd)
    assert code == 0, err
    result = json.loads((tmp_path / "permutation.json").read_text())
    assert result["n_triples"] >= 1
    assert 0.0 < result["p_two_sided"] <= 1.0
    assert (tmp_path / "triples.csv").exists()
    assert result["p_method"] == "exact"
    code, out, _ = run(capsys, "report", "--workdir", wd)
    assert code == 0
    assert "Nonparametric" in out
    assert "P value method                Exact sign-flip" in out
    assert json.loads((tmp_path / "report.json").read_text())["reports"][0]["p_method"] == "exact"


def test_nonparametric_requires_seed(simulated, capsys):
    wd = str(simulated)
    run(capsys, "extract-citations", "--workdir", wd)
    run(capsys, "filter", "--workdir", wd)
    code, _, err = run(capsys, "analyze", "--nonparametric", "--workdir", wd)
    assert code == 1
    assert "seed" in json.loads(err)["error"]["message"]


@pytest.fixture
def assign_workdir(tmp_path, capsys):
    config = tmp_path / "gen.json"
    config.write_text(json.dumps({"n_submissions": 12, "n_reviewers": 8}))
    wd = str(tmp_path)
    run(capsys, "simulate", "--workdir", wd, "--policy", "EC_LIKE",
        "--seed", "2", "--config", str(config))
    run(capsys, "extract-citations", "--workdir", wd, "--pairs", "all")
    # similarity over every submission x reviewer pair
    lines = ["submission_id,reviewer_id,sim"]
    for i, j in itertools.product(range(1, 13), range(1, 9)):
        lines.append(f"s{i:04d},r{j:04d},{((i * 7 + j * 3) % 10) / 10}")
    (tmp_path / "similarity.csv").write_text("\n".join(lines) + "\n")
    return tmp_path


def test_assign_cli_with_similarity(assign_workdir, capsys):
    code, out, err = run(
        capsys, "assign", "--workdir", str(assign_workdir), "--lambda", "0.5",
        "--paper-load", "2", "--reviewer-cap", "4",
        "--sweep", "0,0.5,1.0",
    )
    assert code == 0, err
    assignment = (assign_workdir / "assignment.csv").read_text().splitlines()
    assert assignment[0] == "submission_id,reviewer_id"
    assert len(assignment) == 1 + 12 * 2
    sweep = (assign_workdir / "sweep.csv").read_text().splitlines()
    assert sweep[0] == "lambda,objective_quality,cited_count"
    assert len(sweep) == 4


@pytest.mark.parametrize("flags", [
    ("--lambda", "nan"),
    ("--lambda", "inf"),
    ("--lambda", "-1"),
    ("--sweep", "0,abc"),
    ("--sweep", "0,nan"),
    ("--sweep", "0,-1"),
])
def test_assign_rejects_a_bad_lambda_as_json(assign_workdir, capsys, flags):
    code, _, err = run(
        capsys, "assign", "--workdir", str(assign_workdir),
        "--paper-load", "2", "--reviewer-cap", "4", *flags,
    )
    assert code == 1
    assert json.loads(err)["error"]["type"] == "ValidationError"
    assert not (assign_workdir / "assignment.csv").exists()
    assert not (assign_workdir / "sweep.csv").exists()


def test_venue_config_flag_overrides_default_location(simulated, capsys):
    moved = simulated / "custom_venue.json"
    moved.write_text((simulated / "venue.json").read_text())
    (simulated / "venue.json").unlink()
    code, _, err = run(capsys, "ingest", "--workdir", str(simulated))
    assert code == 1  # default location is gone
    code, _, err = run(
        capsys, "ingest", "--workdir", str(simulated), "--venue-config", str(moved)
    )
    assert code == 0, err


def test_audit_sampling_writes_csvs(simulated, capsys):
    wd = str(simulated)
    code, _, err = run(
        capsys, "extract-citations", "--workdir", wd,
        "--audit-cited", "10", "--audit-uncited", "10", "--seed", "1",
    )
    assert code == 0, err
    cited_rows = (simulated / "audit_cited.csv").read_text().splitlines()
    assert cited_rows[0] == "submission_id,reviewer_id"
    assert len(cited_rows) == 11


@pytest.mark.parametrize(
    "artifact, stages, command, where",
    [
        ("relation.json", [("extract-citations",)], ("filter",), "relation.json: "),
        (
            "analysis.jsonl",
            [("extract-citations",), ("filter",)],
            ("analyze", "--parametric"),
            "analysis.jsonl:1: ",
        ),
        (
            "fit.json",
            [("extract-citations",), ("filter",), ("analyze", "--parametric")],
            ("report",),
            "fit.json: ",
        ),
        (
            "gen.json",
            [],
            ("simulate", "--policy", "EC_LIKE", "--seed", "3", "--config", "gen.json"),
            "gen.json: ",
        ),
    ],
    ids=["relation", "analysis", "fit", "simulate-config"],
)
def test_malformed_artifact_is_parse_error(simulated, capsys, artifact, stages, command, where):
    wd = str(simulated)
    for stage in stages:
        assert run(capsys, *stage, "--workdir", wd)[0] == 0
    (simulated / artifact).write_text('{"truncated": \n')
    command = [str(simulated / arg) if arg == artifact else arg for arg in command]
    code, _, err = run(capsys, *command, "--workdir", wd)
    assert code == 1
    error = json.loads(err)["error"]
    assert error["type"] == "ParseError"
    assert error["message"].startswith(where)


@pytest.mark.parametrize(
    "content, stages, command, error_type, names",
    [
        ("{}", [("extract-citations",)], ("filter",), "ParseError", "relation.json: missing key 'pairs'"),
        (
            '{"n_submission": 10}',
            [],
            ("simulate", "--policy", "EC_LIKE", "--seed", "3", "--config", "gen.json"),
            "ValidationError",
            "'n_submission'",
        ),
        (
            "[1]",
            [],
            ("simulate", "--policy", "EC_LIKE", "--seed", "3", "--config", "gen.json"),
            "ParseError",
            "gen.json: ",
        ),
        (
            '{"pairs": [{"submission_id": 1, "reviewer_id": "r0001", "cited": false}]}',
            [("extract-citations",)],
            ("filter",),
            "ParseError",
            "relation.json: submission_id must be a string, not int",
        ),
        (
            '{"pairs": [{"submission_id": "s0001", "reviewer_id": "r0001", "cited": false}, '
            '{"submission_id": "s0001", "reviewer_id": "r0001", "cited": true}]}',
            [("extract-citations",)],
            ("filter",),
            "ValidationError",
            "relation.json: duplicate pair ('s0001', 'r0001')",
        ),
    ],
    ids=["relation-object", "config-unknown-key", "config-list", "relation-id-int",
         "relation-repeated-pair"],
)
def test_wrong_shape_artifact_is_a_json_error(
    simulated, capsys, content, stages, command, error_type, names
):
    wd = str(simulated)
    for stage in stages:
        assert run(capsys, *stage, "--workdir", wd)[0] == 0
    artifact = "gen.json" if "--config" in command else "relation.json"
    (simulated / artifact).write_text(content)
    command = [str(simulated / arg) if arg == artifact else arg for arg in command]
    code, _, err = run(capsys, *command, "--workdir", wd)
    assert code == 1
    error = json.loads(err)["error"]
    assert error["type"] == error_type
    assert names in error["message"]


@pytest.fixture
def icml_filtered(tmp_path, capsys):
    config = tmp_path / "gen.json"
    config.write_text(json.dumps({"n_submissions": 150, "citation_bias": 0.3}))
    wd = str(tmp_path)
    for args in (
        ("simulate", "--policy", "ICML_LIKE", "--seed", "4", "--config", str(config)),
        ("extract-citations",),
        ("filter",),
    ):
        code, _, err = run(capsys, *args, "--workdir", wd)
        assert code == 0, (args, err)
    return tmp_path


@pytest.mark.parametrize("edit, error_type, names", [
    ({"score": 1e9}, "ValidationError", "has score 1000000000.0 outside [1, 6]"),
    ({"score": float("nan")}, "ValidationError", "has score nan outside [1, 6]"),
    ({"covariates": {"text_overlap": float("nan")}}, "ValidationError",
     "non-finite covariates ['text_overlap']"),
    ({"covariates": {"bid": float("inf")}}, "ValidationError", "non-finite covariates ['bid']"),
    ({"covariates": {"pref_perc": 50.0}}, "ValidationError", "'pref_perc'"),
    ({"covariates": {"bid": None}}, "ParseError", "bid must be a number, not NoneType"),
    ({"score": "5"}, "ParseError", "score must be a number, not str"),
    ({"cited": "false"}, "ParseError", "cited must be a boolean"),
    ({"covariates": {"bid": True}}, "ParseError", "bid must be a number, not bool"),
], ids=["score-huge", "score-nan", "overlap-nan", "bid-inf", "extra-covariate", "bid-null",
        "score-string", "cited-string", "bid-bool"])
@pytest.mark.parametrize("mode", ["--parametric", "--nonparametric"])
def test_analysis_jsonl_is_checked_on_load(icml_filtered, capsys, edit, error_type, names, mode):
    path = icml_filtered / "analysis.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    record = json.loads(lines[2])
    record["covariates"].update(edit.get("covariates", {}))
    record.update({k: v for k, v in edit.items() if k != "covariates"})
    lines[2] = json.dumps(record) + "\n"
    path.write_text("".join(lines))
    code, _, err = run(capsys, "analyze", mode, "--seed", "5", "--workdir", str(icml_filtered))
    assert code == 1
    error = json.loads(err)["error"]
    assert error["type"] == error_type
    assert error["message"].startswith("analysis.jsonl:3: ")
    assert names in error["message"]
    assert not (icml_filtered / "fit.json").exists()
    assert not (icml_filtered / "triples.csv").exists()


@pytest.mark.parametrize("mode", ["--parametric", "--nonparametric"])
def test_a_repeated_analysis_pair_is_rejected(icml_filtered, capsys, mode):
    path = icml_filtered / "analysis.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    record = json.loads(lines[2])
    record["cited"] = not record["cited"]
    lines.insert(3, json.dumps(record) + "\n")
    path.write_text("".join(lines))
    code, _, err = run(capsys, "analyze", mode, "--seed", "5", "--workdir", str(icml_filtered))
    assert code == 1
    error = json.loads(err)["error"]
    assert error["type"] == "ValidationError"
    pair = (record["submission_id"], record["reviewer_id"])
    assert error["message"] == f"analysis.jsonl:4: duplicate record for pair {pair}"
    assert not (icml_filtered / "fit.json").exists()
    assert not (icml_filtered / "triples.csv").exists()


@pytest.mark.parametrize("name, field, value, names", [
    ("reviews.jsonl", "score", "5", "score must be an integer, not str"),
    ("reviews.jsonl", "sr_expertise", None, "sr_expertise must be an integer, not NoneType"),
    ("reviews.jsonl", "reviewer_id", ["r0001"], "wrong shape"),
    ("reviewers.jsonl", "last_name", 5, "last_name must be a string"),
    ("reviewers.jsonl", "first_name", None, "first_name must be a string"),
    ("submissions.jsonl", "reference_entries", "Doe, J. Title. 2020.",
     "reference_entries must be a list of strings"),
    ("submissions.jsonl", "reference_entries", ["Doe, J. Title. 2020.", 5],
     "reference_entries must be a list of strings"),
    ("references.jsonl", "entries", "Doe, J. Title. 2020.", "entries must be a list of strings"),
    ("submissions.jsonl", "withdrawn", "false", "withdrawn must be a boolean"),
    ("reviews.jsonl", "score", 3.5, "score must be an integer"),
    ("reviews.jsonl", "sr_expertise", True, "sr_expertise must be an integer"),
    ("reviews.jsonl", "preference_value", 10.5, "preference_value must be an integer"),
    ("reviews.jsonl", "missing_citation_flag", "no", "missing_citation_flag must be a boolean"),
    ("reviewers.jsonl", "seniority", True, "seniority must be an integer"),
    ("reviewers.jsonl", "has_text_profile", "no", "has_text_profile must be a boolean"),
    ("reviews.jsonl", "text_overlap", True, "text_overlap must be a number, not bool"),
], ids=["review-score-string", "review-expertise-null", "review-id-list",
        "reviewer-last-name-int", "reviewer-first-name-null", "submission-entries-string",
        "submission-entry-int", "references-entries-string", "submission-withdrawn-string",
        "review-score-fraction", "review-expertise-bool", "review-preference-fraction",
        "review-flag-string", "reviewer-seniority-bool", "reviewer-text-profile-string",
        "review-overlap-bool"])
def test_ingest_names_the_line_of_a_wrong_typed_record(
    simulated, capsys, name, field, value, names
):
    path = simulated / name
    lines = path.read_text().splitlines(keepends=True)
    record = json.loads(lines[2])
    record[field] = value
    lines[2] = json.dumps(record) + "\n"
    path.write_text("".join(lines))
    code, _, err = run(capsys, "ingest", "--workdir", str(simulated))
    assert code == 1
    error = json.loads(err)["error"]
    assert error["type"] == "ParseError"
    assert error["message"].startswith(f"{name}:3: ")
    assert names in error["message"]
    assert not (simulated / "ingest_report.json").exists()


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
def test_analyze_rejects_a_bad_overlap_tolerance(icml_filtered, capsys, tolerance):
    code, _, err = run(
        capsys, "analyze", "--nonparametric", "--seed", "5",
        "--overlap-tolerance", tolerance, "--workdir", str(icml_filtered),
    )
    assert code == 1
    error = json.loads(err)["error"]
    assert error["type"] == "ValidationError"
    assert "overlap tolerance" in error["message"]
    assert not (icml_filtered / "triples.csv").exists()
    assert not (icml_filtered / "permutation.json").exists()
