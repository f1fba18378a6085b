"""Pinned digests of every output, for every fixture under every policy.

Each case hashes four outputs of one fixture tracked and evaluated
under one significance policy: the verdict lines, the rendered trace,
the ``eval --json`` report (keys sorted) and the rendered report.  A
digest is the first 16 hex digits of the text's sha256.  Any change to
what the tracker decides, or to how a decision is reported, changes a
digest here.
"""

import hashlib
import json

import pytest

from povtrack import (
    Engine,
    SignificancePolicy,
    evaluate,
    interpretation_line,
    render_trace,
)
from conftest import DATA, fixture_doc

# (fixture, policy) -> digests of the verdict lines, the trace, the
# eval JSON and the rendered report
PINNED = {
    ("demo1", "any-previous-sc"):
        "9d706d13e0fba443 43040537a9511dfc e1b161b0aeb2151b a7f452d37f407951",
    ("demo1", "contains-represented-thought"):
        "9d706d13e0fba443 4589a37c19020e07 e1b161b0aeb2151b a7f452d37f407951",
    ("demo1", "contains-subjective-element"):
        "9d706d13e0fba443 4589a37c19020e07 e1b161b0aeb2151b a7f452d37f407951",
    ("demo1", "min-length-2"):
        "9d706d13e0fba443 4589a37c19020e07 e1b161b0aeb2151b a7f452d37f407951",
    ("demo2", "any-previous-sc"):
        "7d63acfd0d0d93f4 a9d1b3286a27986e 052f7c93fa52e234 9a5f3bc3be1ea0f8",
    ("demo2", "contains-represented-thought"):
        "7d63acfd0d0d93f4 a9d1b3286a27986e 052f7c93fa52e234 9a5f3bc3be1ea0f8",
    ("demo2", "contains-subjective-element"):
        "7d63acfd0d0d93f4 a9d1b3286a27986e 052f7c93fa52e234 9a5f3bc3be1ea0f8",
    ("demo2", "min-length-2"):
        "7d63acfd0d0d93f4 a9d1b3286a27986e 052f7c93fa52e234 9a5f3bc3be1ea0f8",
    ("demo3", "any-previous-sc"):
        "2ba97ce89da40e20 f64b6ddeae02fee1 580a54454a6ae429 9f24b69bc1e6a1c0",
    ("demo3", "contains-represented-thought"):
        "2ba97ce89da40e20 f64b6ddeae02fee1 580a54454a6ae429 9f24b69bc1e6a1c0",
    ("demo3", "contains-subjective-element"):
        "2ba97ce89da40e20 f64b6ddeae02fee1 580a54454a6ae429 9f24b69bc1e6a1c0",
    ("demo3", "min-length-2"):
        "2ba97ce89da40e20 f64b6ddeae02fee1 580a54454a6ae429 9f24b69bc1e6a1c0",
    ("flipped", "any-previous-sc"):
        "5fbbe83a734cbd8b 2069f0314189cb24 635d342e2c5010f4 c9d3308f3ed11c71",
    ("flipped", "contains-represented-thought"):
        "5fbbe83a734cbd8b 2069f0314189cb24 635d342e2c5010f4 c9d3308f3ed11c71",
    ("flipped", "contains-subjective-element"):
        "5fbbe83a734cbd8b 2069f0314189cb24 635d342e2c5010f4 c9d3308f3ed11c71",
    ("flipped", "min-length-2"):
        "5fbbe83a734cbd8b 2069f0314189cb24 635d342e2c5010f4 c9d3308f3ed11c71",
    ("lynette", "any-previous-sc"):
        "270fedd5f97548f4 87c2f93f7d18ae40 6253694e77d0d735 8702fd2a37c32325",
    ("lynette", "contains-represented-thought"):
        "d2552a167b0c6a60 38f2802f23e7dd1a 1733775ebe65878a 7d192413e74ac967",
    ("lynette", "contains-subjective-element"):
        "d2552a167b0c6a60 38f2802f23e7dd1a 1733775ebe65878a 7d192413e74ac967",
    ("lynette", "min-length-2"):
        "d2552a167b0c6a60 38f2802f23e7dd1a 1733775ebe65878a 7d192413e74ac967",
    ("minicorpus", "any-previous-sc"):
        "03f17da494156b19 1de2af5075055611 8c66239683977ca1 2054ff47f0221b82",
    ("minicorpus", "contains-represented-thought"):
        "cacf429c9f2b294b b4505104acf9be17 b690f0dcbb2a3774 c365a38f3a6a979a",
    ("minicorpus", "contains-subjective-element"):
        "03f17da494156b19 1de2af5075055611 8c66239683977ca1 2054ff47f0221b82",
    ("minicorpus", "min-length-2"):
        "03f17da494156b19 1de2af5075055611 8c66239683977ca1 2054ff47f0221b82",
    ("p18", "any-previous-sc"):
        "5021b9e84229d899 0b9fa909554f6ec0 cd612508e57fbe02 ec9bf90bd5aa1e03",
    ("p18", "contains-represented-thought"):
        "5021b9e84229d899 0b9fa909554f6ec0 cd612508e57fbe02 ec9bf90bd5aa1e03",
    ("p18", "contains-subjective-element"):
        "5021b9e84229d899 0b9fa909554f6ec0 cd612508e57fbe02 ec9bf90bd5aa1e03",
    ("p18", "min-length-2"):
        "5021b9e84229d899 0b9fa909554f6ec0 cd612508e57fbe02 ec9bf90bd5aa1e03",
    ("p19", "any-previous-sc"):
        "a109e982230fff1b a8a6e083f7e85ca4 2172dd58d0133b94 594970c76cbf5358",
    ("p19", "contains-represented-thought"):
        "a109e982230fff1b a8a6e083f7e85ca4 2172dd58d0133b94 594970c76cbf5358",
    ("p19", "contains-subjective-element"):
        "a109e982230fff1b a8a6e083f7e85ca4 2172dd58d0133b94 594970c76cbf5358",
    ("p19", "min-length-2"):
        "a109e982230fff1b a8a6e083f7e85ca4 2172dd58d0133b94 594970c76cbf5358",
    ("p24", "any-previous-sc"):
        "460f6bbc9c01d8f6 320867ae09bc3e44 8272f5074bcf76e3 f698e2508f670ada",
    ("p24", "contains-represented-thought"):
        "460f6bbc9c01d8f6 320867ae09bc3e44 8272f5074bcf76e3 f698e2508f670ada",
    ("p24", "contains-subjective-element"):
        "460f6bbc9c01d8f6 320867ae09bc3e44 8272f5074bcf76e3 f698e2508f670ada",
    ("p24", "min-length-2"):
        "460f6bbc9c01d8f6 320867ae09bc3e44 8272f5074bcf76e3 f698e2508f670ada",
    ("p26", "any-previous-sc"):
        "8d72b382443a5320 3ba8e761c04af2e1 7773022a1edb18f8 0fb6825dbc458b61",
    ("p26", "contains-represented-thought"):
        "8d72b382443a5320 3ba8e761c04af2e1 7773022a1edb18f8 0fb6825dbc458b61",
    ("p26", "contains-subjective-element"):
        "8d72b382443a5320 3ba8e761c04af2e1 7773022a1edb18f8 0fb6825dbc458b61",
    ("p26", "min-length-2"):
        "8d72b382443a5320 3ba8e761c04af2e1 7773022a1edb18f8 0fb6825dbc458b61",
    ("p27", "any-previous-sc"):
        "8493312491147320 d6fd91e8b5e1c8e5 8272f5074bcf76e3 f698e2508f670ada",
    ("p27", "contains-represented-thought"):
        "8493312491147320 d6fd91e8b5e1c8e5 8272f5074bcf76e3 f698e2508f670ada",
    ("p27", "contains-subjective-element"):
        "8493312491147320 d6fd91e8b5e1c8e5 8272f5074bcf76e3 f698e2508f670ada",
    ("p27", "min-length-2"):
        "8493312491147320 d6fd91e8b5e1c8e5 8272f5074bcf76e3 f698e2508f670ada",
    ("p31", "any-previous-sc"):
        "3f8a78a8ed7fcd8d 958266960a254834 393344b5e3575129 324f0045dbbbb775",
    ("p31", "contains-represented-thought"):
        "3f8a78a8ed7fcd8d 958266960a254834 393344b5e3575129 324f0045dbbbb775",
    ("p31", "contains-subjective-element"):
        "3f8a78a8ed7fcd8d 958266960a254834 393344b5e3575129 324f0045dbbbb775",
    ("p31", "min-length-2"):
        "3f8a78a8ed7fcd8d 958266960a254834 393344b5e3575129 324f0045dbbbb775",
}


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def test_every_fixture_and_policy_is_pinned():
    fixtures = {path.stem for path in DATA.glob("*.json")}
    assert set(PINNED) == {(name, policy.value) for name in fixtures
                           for policy in SignificancePolicy}


@pytest.mark.parametrize("name,policy", sorted(PINNED))
def test_outputs_match_pinned_digests(name, policy):
    document = fixture_doc(name)
    policy = SignificancePolicy(policy)
    engine = Engine(policy=policy)
    steps = engine.track_document(document)
    lines = "".join(interpretation_line(step) + "\n" for step in steps
                    if step.interpretation is not None)
    report = evaluate(document, engine)
    found = (digest(lines), digest(render_trace(steps)),
             digest(json.dumps(report.to_dict(), sort_keys=True)),
             digest(report.render()))
    assert found == tuple(PINNED[(name, policy.value)].split())

