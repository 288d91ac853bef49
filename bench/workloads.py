"""The benchmark's workloads: calibration, venue-audit and assign-sweep.

Each workload makes its inputs from the seed in ``setup``, runs one timed
operation per ``op`` call and checks its outputs in ``checks``, outside the
timed region.  Every call into revaudit goes through a module attribute
(``syn.generate``, ``cli.main``, ...), so a :class:`tracing.Tracer` that
patched those attributes sees it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from revaudit import cli
from revaudit import filtering as flt
from revaudit import nonparametric as npar
from revaudit import parametric as par
from revaudit import synthetic as syn
from revaudit.assignment import SCALE
from revaudit.dataset import VenuePolicy, policy_covariates

# Mirrors NONPARAM_PROFILE in tests/test_acceptance.py: a matching-friendly
# covariate mix that yields a few hundred matched triples per 900 submissions.
MATCHING_PROFILE = dict(
    reviewers_per_paper=5,
    expertise_weights=(0.02, 0.08, 0.45, 0.45),
    confidence_weights=(0.05, 0.1, 0.45, 0.4),
    text_overlap_sd=0.05,
    bid_weights=(0.1, 0.6, 0.3),
    seniority_rate=0.8,
    citation_prevalence=0.45,
)

DATASET_FILES = (
    "venue.json", "reviewers.jsonl", "submissions.jsonl", "reviews.jsonl",
    "references.jsonl", "ground_truth.json",
)
# Byte-identical outputs of the audit pipeline (see test_cli.py).
AUDIT_ARTIFACTS = (
    "ingest_report.json", "relation.json", "analysis.jsonl", "filter_report.json",
    "exclusions.csv", "missingness.json", "fit.json", "residuals.csv", "qq.csv",
    "triples.csv", "permutation.json", "ranking.json", "ranking.csv",
    "report.json", "report.txt",
)
ASSIGN_INPUTS = ("relation.json",)
ASSIGN_ARTIFACTS = ("assignment.csv", "sweep.csv")

PAPER_LOAD = 3
REVIEWER_CAP = 6
MAIN_LAMBDA = 0.5
SWEEP_LAMBDAS = (0.0, 0.25, 1.0)
WARMUP_INDEX = 1 << 40  # replication indices at and above this are warm-ups


@dataclass
class OpResult:
    seconds: float
    ok: bool
    error: str | None = None
    parts: dict[str, float] = field(default_factory=dict)  # named sub-timings, s
    bytes_written: int = 0


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def derive_seed(seed: int, *keys: int) -> int:
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sha256_json(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _failure(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


class Workload:
    name = ""

    def __init__(self, root: Path, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.tiny = tiny
        self.work = root / ".bench_out" / "work" / self.name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self._n_setups = 0
        self._n_ops = 0

    def restart(self) -> None:
        """Run the next operations on the same inputs again."""
        self._n_ops = 0

    def setup_checks(self) -> list[Check]:
        return []

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


class CliWorkload(Workload):
    """A workload whose operation is a sequence of revaudit CLI commands.

    ``setup`` builds a base directory.  Each operation copies ``inputs`` from
    it into a fresh directory, adds the inputs of its instance (``prepare``)
    and runs ``commands`` there.  Every operation on an instance must
    reproduce that instance's artifacts byte for byte; the first directory of
    each instance is kept for the output checks.
    """

    inputs: tuple[str, ...] = ()
    artifacts: tuple[str, ...] = ()

    def __init__(self, root: Path, seed: int, tiny: bool) -> None:
        super().__init__(root, seed, tiny)
        self.base: Path | None = None
        self.base_digests: dict[str, str] | None = None
        self.kept: dict[int, Path] = {}
        self.instance_digests: dict[int, dict[str, str]] = {}
        self._n_dirs = 0
        self._setups_identical = True

    def commands(self) -> list[list[str]]:
        raise NotImplementedError

    def build_inputs(self, directory: Path) -> None:
        raise NotImplementedError

    def instance(self, index: int) -> int:
        """Which input instance operation ``index`` runs on."""
        return 0

    def prepare(self, directory: Path, instance: int) -> None:
        """Write the inputs that belong to one instance (untimed)."""

    def setup(self) -> float:
        directory = self.work / f"setup-{self._n_setups}"
        self._n_setups += 1
        directory.mkdir()
        started = time.perf_counter()
        self.build_inputs(directory)
        seconds = time.perf_counter() - started
        digests = {name: sha256_file(directory / name) for name in self.inputs}
        if self.base_digests is not None and digests != self.base_digests:
            self._setups_identical = False
        if self.base is not None:
            shutil.rmtree(self.base)
        self.base, self.base_digests = directory, digests
        return seconds

    def setup_checks(self) -> list[Check]:
        return [Check("setup-deterministic", self._setups_identical,
                      f"inputs of {self._n_setups} set-ups compared")]

    def run(self, args: list[str], workdir: Path) -> int:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main([*args, "--workdir", str(workdir)])
        if code != 0:
            raise RuntimeError(f"`{args[0]}` exited {code}: {err.getvalue().strip()}")
        return code

    def op(self, tracer=None, pace=None) -> OpResult:
        instance = self.instance(self._n_ops)
        self._n_ops += 1
        directory = self.work / f"op-{self._n_dirs}"
        self._n_dirs += 1
        directory.mkdir()
        for name in self.inputs:
            shutil.copyfile(self.base / name, directory / name)
        self.prepare(directory, instance)
        before = {p.name for p in directory.iterdir()}
        parts: dict[str, float] = {}
        try:
            for args in self.commands():
                t0 = time.perf_counter()
                key = f"cli.{args[0]}"
                with tracer.span(key) if tracer else contextlib.nullcontext():
                    self.run(args, directory)
                elapsed = time.perf_counter() - t0
                parts[key] = parts.get(key, 0.0) + elapsed
                if pace is not None:
                    pace.step(elapsed)
        except Exception as exc:  # any failure of the operation is counted, not fatal
            shutil.rmtree(directory)
            return OpResult(sum(parts.values()), False, _failure(exc), parts)
        seconds = sum(parts.values())

        written = sum(p.stat().st_size for p in directory.iterdir() if p.name not in before)
        digests = {name: sha256_file(directory / name) for name in self.artifacts}
        result = OpResult(seconds, True, None, parts, written)
        known = self.instance_digests.setdefault(instance, digests)
        if known is digests:
            self.kept[instance] = directory
        else:
            shutil.rmtree(directory)
            changed = sorted(k for k in digests if digests[k] != known[k])
            if changed:
                result.ok, result.error = False, f"instance {instance} artifacts differ: {changed}"
        return result

    def digests(self) -> dict[str, str]:
        out = dict(self.base_digests or {})
        for instance, digests in sorted(self.instance_digests.items()):
            out.update({f"{instance}/{name}": d for name, d in digests.items()})
        return out


class VenueAudit(CliWorkload):
    """One auditor's pipeline on a simulated ICML-like venue."""

    name = "venue-audit"
    inputs = DATASET_FILES
    artifacts = AUDIT_ARTIFACTS

    def build_inputs(self, directory: Path) -> None:
        overrides = dict(MATCHING_PROFILE, n_submissions=200 if self.tiny else 3000,
                         citation_bias=0.3)
        config = directory / "gen.json"
        config.write_text(json.dumps(overrides), encoding="utf-8")
        self.run(["simulate", "--policy", "ICML_LIKE", "--seed", str(self.seed),
                  "--config", str(config)], directory)

    def commands(self) -> list[list[str]]:
        return [
            ["ingest"],
            ["extract-citations"],
            ["filter"],
            ["analyze", "--parametric"],
            ["analyze", "--nonparametric", "--seed", str(self.seed)],
            ["diagnostics"],
            ["effect-size"],
            ["report"],
        ]

    def checks(self) -> list[Check]:
        if 0 not in self.kept:
            return [Check("relation-matches-truth", False, "no operation completed")]
        first = self.kept[0]
        truth = json.loads((first / "ground_truth.json").read_text(encoding="utf-8"))
        planted = {(row["submission_id"], row["reviewer_id"]): row["cited"]
                   for row in truth["pairs"]}
        relation = json.loads((first / "relation.json").read_text(encoding="utf-8"))
        compared = disagree = 0
        for row in relation["pairs"]:
            pair = (row["submission_id"], row["reviewer_id"])
            if row["ambiguous"] or pair not in planted:
                continue
            compared += 1
            disagree += row["cited"] != planted[pair]
        ok = compared > 0 and disagree == 0
        return [Check("relation-matches-truth", ok,
                      f"{disagree} of {compared} collision-free pairs disagree")]


class AssignSweep(CliWorkload):
    """Citation-aware assignment with a lambda sweep on dense similarity matrices.

    Solver time depends on the instance, so every operation draws its own
    similarity matrix from the seed and its index; the run's median then
    spans many instances instead of resting on one.
    """

    name = "assign-sweep"
    inputs = ASSIGN_INPUTS
    artifacts = ASSIGN_ARTIFACTS

    def build_inputs(self, directory: Path) -> None:
        config = directory / "gen.json"
        config.write_text(json.dumps({"n_submissions": 20 if self.tiny else 100}),
                          encoding="utf-8")
        self.run(["simulate", "--policy", "ICML_LIKE", "--seed", str(self.seed),
                  "--config", str(config)], directory)
        self.run(["extract-citations", "--pairs", "all"], directory)

        def ids(name: str) -> list[str]:
            with (directory / name).open(encoding="utf-8") as fh:
                return [json.loads(line)["id"] for line in fh]

        self.papers, self.reviewers = ids("submissions.jsonl"), ids("reviewers.jsonl")

    def instance(self, index: int) -> int:
        return index

    def prepare(self, directory: Path, instance: int) -> None:
        rng = np.random.default_rng([self.seed, 7, instance])
        values = rng.random((len(self.papers), len(self.reviewers)))
        with (directory / "similarity.csv").open("w", encoding="utf-8", newline="") as fh:
            fh.write("submission_id,reviewer_id,sim\n")
            for paper, row in zip(self.papers, values):
                fh.writelines(f"{paper},{rid},{v:.6f}\n" for rid, v in zip(self.reviewers, row))

    def commands(self) -> list[list[str]]:
        return [[
            "assign", "--lambda", str(MAIN_LAMBDA), "--paper-load", str(PAPER_LOAD),
            "--reviewer-cap", str(REVIEWER_CAP),
            "--sweep", ",".join(str(x) for x in SWEEP_LAMBDAS),
        ]]

    @staticmethod
    def _read(directory: Path):
        with (directory / "similarity.csv").open(encoding="utf-8", newline="") as fh:
            sim = {(r["submission_id"], r["reviewer_id"]): float(r["sim"])
                   for r in csv.DictReader(fh)}
        relation = json.loads((directory / "relation.json").read_text(encoding="utf-8"))
        cited = {(r["submission_id"], r["reviewer_id"]): r.get("override", r["cited"])
                 for r in relation["pairs"]}
        with (directory / "assignment.csv").open(encoding="utf-8", newline="") as fh:
            chosen = {(r["submission_id"], r["reviewer_id"]) for r in csv.DictReader(fh)}
        with (directory / "sweep.csv").open(encoding="utf-8", newline="") as fh:
            sweep = [(float(r["lambda"]), float(r["objective_quality"]), int(r["cited_count"]))
                     for r in csv.DictReader(fh)]
        return sim, cited, chosen, sweep

    def checks(self) -> list[Check]:
        if not self.kept:
            return [Check("assignment-outputs", False, "no operation completed")]
        bad_loads, gaps, not_monotone = [], {}, []
        for instance, directory in sorted(self.kept.items()):
            sim, cited, chosen, sweep = self._read(directory)
            pairs = sorted(sim)
            papers = sorted({p for p, _ in pairs})
            reviewers = sorted({r for _, r in pairs})

            per_paper = {p: 0 for p in papers}
            per_reviewer = {r: 0 for r in reviewers}
            for paper, reviewer in chosen & set(sim):
                per_paper[paper] += 1
                per_reviewer[reviewer] += 1
            if not (chosen <= set(sim)
                    and all(n == PAPER_LOAD for n in per_paper.values())
                    and all(n <= REVIEWER_CAP for n in per_reviewer.values())):
                bad_loads.append(instance)

            quality = sum(round(sim[p] * SCALE) for p in chosen if p in sim)
            n_cited = sum(1 for p in chosen if cited.get(p, False))
            solved = [(MAIN_LAMBDA, quality, n_cited)]
            solved += [(lam, round(q * SCALE), c) for lam, q, c in sweep]
            for lam, q_scaled, c in solved:
                optimum = self._lp_optimum(sim, cited, pairs, papers, reviewers, lam)
                gap = q_scaled + round(lam * SCALE) * c - optimum
                if gap:
                    gaps[f"{instance}@{lam}"] = gap

            ordered = sorted(sweep)
            if len(ordered) != len(SWEEP_LAMBDAS) or not all(
                b[2] >= a[2] and b[1] <= a[1] for a, b in zip(ordered, ordered[1:])
            ):
                not_monotone.append(instance)
        n = len(self.kept)
        return [
            Check("loads-and-caps", not bad_loads,
                  f"{n} instances; violated on {bad_loads}"),
            Check("objective-equals-highs-lp", not gaps,
                  f"{n} instances x {1 + len(SWEEP_LAMBDAS)} lambdas; "
                  f"solver minus LP optimum where nonzero: {gaps}"),
            Check("sweep-monotone", not not_monotone,
                  f"{n} instances; not monotone on {not_monotone}"),
        ]

    @staticmethod
    def _lp_optimum(sim, cited, pairs, papers, reviewers, lam) -> int:
        """Integer objective of the HiGHS LP vertex on the same integer utilities."""
        lam_scaled = round(lam * SCALE)
        utility = np.array(
            [round(sim[p] * SCALE) + (lam_scaled if cited.get(p, False) else 0) for p in pairs],
            dtype=float,
        )
        paper_row = {p: i for i, p in enumerate(papers)}
        reviewer_row = {r: i for i, r in enumerate(reviewers)}
        cols = np.arange(len(pairs))
        ones = np.ones(len(pairs))
        a_eq = sparse.csr_matrix((ones, ([paper_row[p] for p, _ in pairs], cols)),
                                 shape=(len(papers), len(pairs)))
        a_ub = sparse.csr_matrix((ones, ([reviewer_row[r] for _, r in pairs], cols)),
                                 shape=(len(reviewers), len(pairs)))
        res = linprog(-utility, A_ub=a_ub, b_ub=np.full(len(reviewers), REVIEWER_CAP),
                      A_eq=a_eq, b_eq=np.full(len(papers), PAPER_LOAD),
                      bounds=(0, 1), method="highs")
        if res.status != 0:
            raise RuntimeError(f"HiGHS failed: {res.message}")
        x = np.round(res.x)
        if np.max(np.abs(res.x - x)) > 1e-6:
            raise RuntimeError("HiGHS returned a fractional vertex")
        return int(sum(int(u) for u in utility[x == 1]))


class Calibration(Workload):
    """In-process replica of test_null_calibration_both_tests.

    One operation is one EC-like WLS replication followed by one ICML-like
    permutation replication, each on its own seed derived from the workload
    seed and the replication index.
    """

    name = "calibration"

    def __init__(self, root: Path, seed: int, tiny: bool) -> None:
        super().__init__(root, seed, tiny)
        self.ec_size = 60 if tiny else 300
        self.icml_size = 150 if tiny else 900
        self.results: dict[int, str] = {}

    def _ec_config(self, index: int):
        return syn.GeneratorConfig.ec_like(
            n_submissions=self.ec_size, citation_bias=0.0,
            seed=derive_seed(self.seed, index, 0), render_references=False,
        )

    def replicate(self, index: int, pace=None) -> tuple[OpResult, str]:
        """Time one replication pair; return it with a digest of both results."""
        started = time.perf_counter()
        dataset, relation, truth = syn.generate(self._ec_config(index))
        analysis, _ = flt.filter_dataset(dataset, relation, scores=truth.latent_scores)
        fit = par.fit_wls(par.build_rows(analysis), VenuePolicy.EC_LIKE)
        wls_s = time.perf_counter() - started
        if pace is not None:
            pace.step(wls_s)
        started = time.perf_counter()
        config = syn.GeneratorConfig.icml_like(
            seed=derive_seed(self.seed, index, 1), citation_bias=0.0,
            n_submissions=self.icml_size, render_references=False, **MATCHING_PROFILE,
        )
        dataset, relation, _ = syn.generate(config)
        analysis, _ = flt.filter_dataset(dataset, relation)
        triples = npar.match(analysis)
        perm = npar.permutation_test(
            triples, iterations=10_000, seed=derive_seed(self.seed, index, 2), bootstrap=False
        )
        perm_s = time.perf_counter() - started
        if pace is not None:
            pace.step(perm_s)

        result = OpResult(wls_s + perm_s, True, parts={"wls_rep": wls_s, "perm_rep": perm_s})
        p_wls, p_perm = fit.p_values["citation_effect"], perm.p_two_sided
        if not (0.0 < p_wls <= 1.0 and 0.0 < p_perm <= 1.0):
            result.ok, result.error = False, f"p-value outside (0, 1]: {p_wls}, {p_perm}"
        return result, sha256_json({"fit": fit.as_dict(), "permutation": perm.as_dict()})

    def setup(self) -> float:
        """One warm-up replication pair on seeds that no operation uses."""
        self._n_setups += 1
        started = time.perf_counter()
        self.replicate(WARMUP_INDEX + self._n_setups)
        return time.perf_counter() - started

    def op(self, tracer=None, pace=None) -> OpResult:
        index = self._n_ops
        self._n_ops += 1
        try:
            result, digest = self.replicate(index, pace)
        except Exception as exc:  # any failure of the operation is counted, not fatal
            return OpResult(0.0, False, _failure(exc))
        if self.results.setdefault(index, digest) != digest:
            result.ok, result.error = False, f"replication {index} gave another result"
        return result

    def checks(self) -> list[Check]:
        checks = []
        dataset, relation, truth = syn.generate(self._ec_config(0))
        analysis, _ = flt.filter_dataset(dataset, relation, scores=truth.latent_scores)
        rows = par.build_rows(analysis)
        fit = par.fit_wls(rows, VenuePolicy.EC_LIKE)
        names = policy_covariates(VenuePolicy.EC_LIKE)
        X = np.column_stack([np.ones(len(rows))] +
                            [[row.covariate_deltas[n] for row in rows] for n in names])
        keep = [0] + [j + 1 for j in range(len(names)) if np.any(X[:, j + 1] != 0.0)]
        X = X[:, keep]
        w = np.array([row.weight for row in rows])
        y = np.array([row.score_delta for row in rows])
        oracle = np.linalg.inv(X.T @ (w[:, None] * X)) @ (X.T @ (w * y))
        got = np.array([fit.citation_effect] + [fit.coefficients[names[j - 1]] for j in keep[1:]])
        worst = float(np.max(np.abs(got - oracle)))
        checks.append(Check("wls-normal-equations", worst < 1e-8,
                            f"worst deviation {worst:.2e} over {len(rows)} rows"))

        _, digest = self.replicate(0)
        same = digest == self.results.get(0)
        checks.append(Check("replication-reruns-identical", same,
                            "identical" if same else "replication 0 gave another result"))
        return checks

    def digests(self) -> dict[str, str]:
        return {f"replication-{i:05d}": d for i, d in sorted(self.results.items())}


WORKLOADS = {cls.name: cls for cls in (Calibration, VenueAudit, AssignSweep)}

