"""The seeded samplers' draws, pinned by digest.

Each public sampler of ``logspaces.sampling`` runs on seeds 0-299.  For each
seed the repr of the draw and the generator's next ``random()`` feed one
sha256 per sampler, so a change to any drawn value, or to how many numbers a
draw consumes, changes the digest.  Samplers that take a space draw it first
from ``random_space`` on the same generator.  The recorded digests are in
``tests/data/sampler_digests.json``; ``python tests/test_sampler_digests.py``
rewrites them.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from logspaces.sampling import (
    equal_passport_partner,
    random_bounded_space,
    random_density,
    random_equal_passport_pair,
    random_kind,
    random_matched_components_pair,
    random_measurable_set,
    random_space,
    random_step_function,
)

DATA = Path(__file__).parent / "data" / "sampler_digests.json"
SEEDS = range(300)


def _on_a_space(sampler):
    def draw(rng):
        return sampler(rng, random_space(rng))

    return draw


SAMPLERS = {
    "random_space": random_space,
    "random_bounded_space": random_bounded_space,
    "random_density": _on_a_space(random_density),
    "random_kind": _on_a_space(random_kind),
    "random_step_function": _on_a_space(random_step_function),
    "random_measurable_set": _on_a_space(random_measurable_set),
    "equal_passport_partner": _on_a_space(equal_passport_partner),
    "random_equal_passport_pair": random_equal_passport_pair,
    "random_matched_components_pair": random_matched_components_pair,
}


def digest(name: str) -> str:
    h = hashlib.sha256()
    for seed in SEEDS:
        rng = random.Random(seed)
        h.update(f"{SAMPLERS[name](rng)!r}\n{rng.random()!r}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", SAMPLERS)
def test_sampler_draws_match_the_recorded_digest(name):
    assert digest(name) == json.loads(DATA.read_text())[name]


if __name__ == "__main__":
    DATA.write_text(json.dumps({name: digest(name) for name in SAMPLERS}, indent=2) + "\n")
