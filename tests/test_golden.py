"""Golden digests: the sha256 of every file ``run_experiment`` writes.

The cases are the five specs of the acceptance determinism criterion
plus one ``gibbs1d`` run long enough that the CSV writer crosses block
boundaries. Any change to the chain numerics, the aggregation or the
CSV formatting shows up here as a changed digest. A deliberate numerics
change re-pins the table (``python tests/test_golden.py`` prints it)
and says why in ``CHANGES.md``.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import replace

import pytest

from rgld.harness import (
    preset_gibbs1d,
    preset_gm2d,
    preset_gm2d_pgld_vs_rgld,
    preset_rastrigin,
    preset_rosenbrock,
    run_experiment,
)


def golden_specs():
    return {
        "gm2d": replace(preset_gm2d(), steps=2000, seeds=(0, 1)),
        "gm2d-pgld-vs-rgld": replace(preset_gm2d_pgld_vs_rgld(), steps=2000, seeds=(0, 1)),
        "rosenbrock4": replace(preset_rosenbrock(4), steps=2000, seeds=(0, 1)),
        "rastrigin2": replace(preset_rastrigin(2), steps=2000, seeds=(0, 1)),
        "gibbs1d": replace(preset_gibbs1d(), steps=20_000, tv_prefixes=(10_000, 20_000)),
        "gibbs1d-200k": replace(preset_gibbs1d(), steps=200_000,
                                tv_prefixes=(10_000, 100_000, 200_000)),
    }


def digests(spec, out_dir) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in run_experiment(spec, out_dir)
    }


GOLDEN = {
    'gibbs1d': {
        'gibbs1d_rgld_aggregate.csv':
            '33f6d1ac59d8332c0bf833ebe23413b36f019303481c98d88c6f0003d049ce0f',
        'gibbs1d_rgld_seed0.csv':
            'c24e3ff2c1f55eb00dd7e00534a401504fe1c01862ad01dfa9f1bf4237eb9ee0',
        'gibbs1d_rgld_tv_seed0.csv':
            '79c46381c97021a1ebbb939af92c1ffcb0dbfc54533f3a13f35c3ec2a617b466',
    },
    'gibbs1d-200k': {
        'gibbs1d_rgld_aggregate.csv':
            '9e2a0c908cab62647a06df5dece8fa4cfc8c0a42a8ee63063a7c4d6255d610d8',
        'gibbs1d_rgld_seed0.csv':
            '222432a3340a75edac34b5c5dd8cdf0c8d3bc09da1db68d7caadd988738bda31',
        'gibbs1d_rgld_tv_seed0.csv':
            '1eec046f44632556e9fc514ba6c16a728a82da7ea593d44760231cd9edd16e82',
    },
    'gm2d': {
        'gm2d_pg_aggregate.csv':
            '46968a12492a3a811ee2185ea1b1732a872168edfe736e37c647924800196e16',
        'gm2d_pg_seed0.csv':
            'aaae0447f7b07dbe882273271ec1774c9680218eb84a61cc5d8bbdecb838676c',
        'gm2d_pg_seed1.csv':
            'aaae0447f7b07dbe882273271ec1774c9680218eb84a61cc5d8bbdecb838676c',
        'gm2d_rgld_aggregate.csv':
            '1493546dbe174593745a9463cff6246a8e2b480c5628e938a17e97dac412085d',
        'gm2d_rgld_seed0.csv':
            'a9f37622fea7ec9a4f366fd33af559030cb561ea4d81a819f7fada93390b2411',
        'gm2d_rgld_seed1.csv':
            '460e4b9b61666db21899f7296ac64eb141903874d1dc57fc19ae32eb28226946',
    },
    'gm2d-pgld-vs-rgld': {
        'gm2d-pgld-vs-rgld_pgld_aggregate.csv':
            '1c81eda6cb324b6d38607a7d7beceb4b54cfe92c638eed66c3954f3c4c9a77b9',
        'gm2d-pgld-vs-rgld_pgld_seed0.csv':
            'c95ca58319c4e7703baa58f8654dc3d62a06c440839ecad4e42a4fec76ab001d',
        'gm2d-pgld-vs-rgld_pgld_seed1.csv':
            '70e6a894dd23c60a94560365211c47c0d7f34fffc1f34ac5fefe8d084bb77b29',
        'gm2d-pgld-vs-rgld_rgld_aggregate.csv':
            '1493546dbe174593745a9463cff6246a8e2b480c5628e938a17e97dac412085d',
        'gm2d-pgld-vs-rgld_rgld_seed0.csv':
            'a9f37622fea7ec9a4f366fd33af559030cb561ea4d81a819f7fada93390b2411',
        'gm2d-pgld-vs-rgld_rgld_seed1.csv':
            '460e4b9b61666db21899f7296ac64eb141903874d1dc57fc19ae32eb28226946',
    },
    'rastrigin2': {
        'rastrigin2_pg_aggregate.csv':
            '777e4e354762b9bb8d5d91e9fc6cb599d506f2fe3c3bf0987eaa0136b9df44d7',
        'rastrigin2_pg_seed0.csv':
            'c9ee3a7e85be9ad141f60679f447af888e682cdf9b78dad4e3dcee5fb7f879ab',
        'rastrigin2_pg_seed1.csv':
            '6851b9ca92a89f790ed66cb5fb5451614400522a1b09f41f6928c9adb4bf6040',
        'rastrigin2_rgld_aggregate.csv':
            '0760caf6362d117b17e62c3f08a08046318930cf8b27dc59d3630ef012135ebd',
        'rastrigin2_rgld_seed0.csv':
            '595f0e1bf8b09fe1d1d2e751937afd4a4687febafca9fee50ac4d2d7386f3ec4',
        'rastrigin2_rgld_seed1.csv':
            '827a767310e50e90b63eec7a91f36d61594caef8cb595075eb5d5dc62ce2cb74',
    },
    'rosenbrock4': {
        'rosenbrock4_pg_aggregate.csv':
            '9e2d4709611dea2bb008cdc4864bdda86a11e06fcb3e7aa0b3163a542651ddbb',
        'rosenbrock4_pg_seed0.csv':
            '8924f753f517f0b18c93253a1e4c4a17e1e124aea7cacf5f5e0e8462a114726f',
        'rosenbrock4_pg_seed1.csv':
            '8cd6c854ef526676b828ec9df040ac4cfb15850cd201d55a6f43d1f855a48235',
        'rosenbrock4_rgld_aggregate.csv':
            '28ca30274ba3af5813d7c2a47e2955d8f29d0a826b14af863970e3459faba2ba',
        'rosenbrock4_rgld_seed0.csv':
            'c8ab7bc353bc64bc19974247a2961aa1ff93183326f100860c658b9af6ab0c3e',
        'rosenbrock4_rgld_seed1.csv':
            '358a924e2d35d1cc692debf9bdaa0a8d41bd25c8e2e162922e9c552921f9502a',
    },
}


@pytest.mark.parametrize("case", sorted(golden_specs()))
def test_output_digests_are_pinned(case, tmp_path):
    assert digests(golden_specs()[case], tmp_path) == GOLDEN[case]


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        sys.stdout.write("GOLDEN = {\n")
        for case, spec in sorted(golden_specs().items()):
            sys.stdout.write(f"    {case!r}: {{\n")
            for name, digest in sorted(digests(spec, Path(tmp) / case).items()):
                sys.stdout.write(f"        {name!r}:\n            {digest!r},\n")
            sys.stdout.write("    },\n")
        sys.stdout.write("}\n")
