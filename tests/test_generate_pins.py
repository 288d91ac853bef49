"""Pinned bytes of seeded ``generate`` output.

Each case saves the dataset, the ground truth and the rendered references of
one seeded venue and compares the SHA-256 of those bytes with a recorded
digest, so any change to the draw order or to the records shows here.  The
cases cover both policies, every missingness variable, rendered and
unrendered references, and citation prevalence 0 and 1.
"""

import hashlib

import pytest

from revaudit import synthetic as syn
from revaudit.dataset import save_dataset

CASES = {
    "ec-default": ("EC_LIKE", dict(n_submissions=40, citation_bias=0.3, seed=1)),
    "ec-missing-confounded": ("EC_LIKE", dict(
        n_submissions=40, citation_bias=0.3, confounder_correlation=0.6,
        missingness={"preference": 0.3}, seed=2,
    )),
    "ec-prevalence-0": ("EC_LIKE", dict(n_submissions=30, citation_prevalence=0.0, seed=3)),
    "ec-prevalence-1": ("EC_LIKE", dict(
        n_submissions=30, citation_prevalence=1.0, confounder_correlation=-0.4, seed=4,
    )),
    "icml-default": ("ICML_LIKE", dict(n_submissions=40, citation_bias=0.3, seed=5)),
    "icml-missing": ("ICML_LIKE", dict(
        n_submissions=40, reviewers_per_paper=5, citation_bias=-0.2,
        missingness={"sr_confidence": 0.2, "text_overlap": 0.3, "bid": 0.25}, seed=6,
    )),
    "icml-prevalence-0": ("ICML_LIKE", dict(
        n_submissions=30, citation_prevalence=0.0, missingness={"bid": 0.5}, seed=7,
    )),
    "icml-prevalence-1-unrendered": ("ICML_LIKE", dict(
        n_submissions=30, citation_prevalence=1.0, render_references=False, seed=8,
    )),
}

DIGESTS = {
    "ec-default":
        "fe729245e7328de31d7156e79d38d559b291c302af3e27cda4d06aa2e6f3f650",
    "ec-missing-confounded":
        "f949e23bf88a592ddf41d50c6d6dfd52ad4f8f6c9f36ce790a5cd4da2b6f6809",
    "ec-prevalence-0":
        "59fb01f8da481d9a92b4da5337f4b99d5eaaf4509c5779aaa5551d3aa5ba1499",
    "ec-prevalence-1":
        "88895e66ec3efa5f9423d316edbabdfed4303d1090f5efbdbc13f73a40483e04",
    "icml-default":
        "fecc65f64119644bc15bd35b3154c561219b60b8637c031e1085c2832987ccbd",
    "icml-missing":
        "bb1c485aca5b258efbcf847196d40888cad0a0929005c54bc81bc7fe14186305",
    "icml-prevalence-0":
        "3a8dbdae547eb88cb2ebce562b2d1391a45ac476b58b82c9b4483435f7555595",
    "icml-prevalence-1-unrendered":
        "9f4a3925b9548abe13218d865ce04901d8e3cff8887d8f53b1edc701896e5892",
}


def generated_bytes_digest(policy: str, params: dict, workdir) -> str:
    config = syn.GeneratorConfig.from_dict({**params, "policy": policy})
    dataset, _, truth = syn.generate(config)
    save_dataset(dataset, workdir)
    syn.save_ground_truth(truth, workdir / "ground_truth.json")
    syn.save_references_jsonl(dataset, workdir / "references.jsonl")
    digest = hashlib.sha256()
    for name in (
        "venue.json", "reviewers.jsonl", "submissions.jsonl", "reviews.jsonl",
        "ground_truth.json", "references.jsonl",
    ):
        digest.update(name.encode() + b"\0" + (workdir / name).read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_generate_writes_the_pinned_bytes(name, tmp_path):
    policy, params = CASES[name]
    assert generated_bytes_digest(policy, params, tmp_path) == DIGESTS[name]


@pytest.mark.parametrize("block", [1, 100, 4096])
def test_the_pins_hold_across_draw_blocks(block, tmp_path, monkeypatch):
    # Every pinned venue fits in one block of the default size.  Smaller
    # blocks split the reviewer-key draw across rows (100 keys over the
    # 32-reviewer ICML pool gives 3-row blocks and a 1-row last block; 1 gives
    # one row per block), and must read the same stream.
    monkeypatch.setattr(syn, "DRAW_BLOCK", block)
    for name, (policy, params) in CASES.items():
        workdir = tmp_path / name
        workdir.mkdir()
        assert generated_bytes_digest(policy, params, workdir) == DIGESTS[name], name
