"""Byte pins of the paper-format trace files.

The ``.aptrc`` goldens pin the archive; this pins every file
:meth:`ActorProf.write_traces` emits for the same two golden workloads
(timeline on, so the Trace Event JSON and the OTF set are written too):
``PEi_send.csv``, ``PEi_PAPI.csv``, ``overall.txt``, ``physical.txt``,
``trace.json`` and ``actorprof.*``.  A sampled logical trace
(``logical_sample_interval=16``) pins the sampling path's CSV.

Regenerate (only after an intentional format change) with::

    PYTHONPATH=src python tests/test_paper_format_pins.py
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from repro.check.policies import make_schedules
from repro.core.flags import ProfileFlags
from repro.core.profiler import ActorProf
from tests.test_golden_archives import GOLDEN_WORKLOADS

PINS = {'histogram': {'PE0_PAPI.csv': '2a193d7f25e0ec699cd9c67863c47b9426d555046b661c415d051d0fe5f3eda1',
               'PE0_send.csv': 'd4de6404a584a65add99af117831ad317636caefd7015f11873d9a5b499d34f4',
               'PE1_PAPI.csv': 'ece34685b54b17b75815f608393a83ff1a954f7e72c33183115b47d51d827f5a',
               'PE1_send.csv': '36b412572ebaba1b79cba9351fc87d38d5163cc80665c8cc565211b3d514952b',
               'PE2_PAPI.csv': 'fa066d8e2875850c4d04f4373ee4a061e0684741584f51c35c6da742fb620969',
               'PE2_send.csv': '3e4178d330bc3c57887201d5a25c6776a75f4e54972858781607e657586dd05d',
               'PE3_PAPI.csv': 'e5eee76a6893aee55b31e13658b1441d8e861c88359e69e819353e1a8efe6042',
               'PE3_send.csv': 'a158d9f13a5c4ee41eed4fa8fbff465b2540143cf148d22c91f8fc59e3316154',
               'actorprof.0.def': '6475997f2dbf00a78b99c18a74243ec5142598c4346e69b0a711ee177604b92e',
               'actorprof.1.events': '3c0978fa45e9ef6ed05b58a65629bb99541471998cc71503122b9b649f1d29b7',
               'actorprof.2.events': 'e0c32d4e836b0f0c4bbfc3e9d56349b4f5bee177f0f719b230ea08c18b87a15d',
               'actorprof.3.events': '62b560c91222d912dba592d8ab2e3e587e2654c9d4905dcdde11aa0bd5c557ef',
               'actorprof.4.events': '964cfb2e5ce299ea60be609acb7db6628f85ba8918b41f96912900dfb518359e',
               'actorprof.otf': 'bdad169134fa2f9dd98b3d146d142b1a4c3fe9b25521bc094258604e7ed32920',
               'overall.txt': '876d207f4b33b1506132c0a0639cd4190cb80a8ec976aea160d5a1ed41007c01',
               'physical.txt': '9eb95b864a8840fb2c128ac9fb183ab3d329528079fe1487cf72acf91f323244',
               'trace.json': '6618f2c55ec747fd0b0fe2c91fcbefebb9cf3f5f2e2cd3bd52f60c35181b4ff5'},
 'triangle': {'PE0_PAPI.csv': '3bff176c3db1ec7294f13058ae6f66db174bb194427c1e5dd0279c100af5c1c9',
              'PE0_send.csv': '8ade10a7f056b303eed634f70dd1dd157b58f4eb1a0989275e05a887533d753a',
              'PE1_PAPI.csv': '063faf105f55b099345643be17af2e488c33f6f63ad61ec2ee6bec0027d64183',
              'PE1_send.csv': '9a58a8dbcd39829dbfa699419d9650680ba3e6daf612ab9610d127e6d2330218',
              'PE2_PAPI.csv': 'b860e87248eed0008a0cac2609ee7f802bbea93feaa918dc5d466475641bf92f',
              'PE2_send.csv': '18aa123ba82e06838f07d3264dab8f95c7ad9b211e2ca81c692c33ad1e7ab6a0',
              'PE3_PAPI.csv': '149fc9efbc13107888c5a251b43bf6467f3277d7134f5735eea7551be324d0a3',
              'PE3_send.csv': 'ff88d2ee438e3aacd6fcb1af2a10ae8cdbae0dffc2020db560abb8dea161e800',
              'actorprof.0.def': '6475997f2dbf00a78b99c18a74243ec5142598c4346e69b0a711ee177604b92e',
              'actorprof.1.events': '522bd9cd7b170a2e74696005633c50040caf596bb6794f98e58cd0ed6308de75',
              'actorprof.2.events': '2d537f375e902b3da7ce8afb675d996dc9e92f8007d1d096711b283a633d9913',
              'actorprof.3.events': '650ffe2c76bccaabbbed0395f88d6a57ef168b976667d51af7350146c8da035d',
              'actorprof.4.events': '6c3141615b51782a1ea84ec134de3d352783b28e52a87cd35897ca09a175a805',
              'actorprof.otf': 'bdad169134fa2f9dd98b3d146d142b1a4c3fe9b25521bc094258604e7ed32920',
              'overall.txt': '53dd7c04ea1f693e436f19b32a7d0f4fdb0fd6ab508cd80462cb4fdf76fad76a',
              'physical.txt': '7453b05040af963cb6c3edaaaa6fc0ca5ae0af2f35fd4b269f38b060436a8640',
              'trace.json': '4ffb7089ffec9d2addc7b7d5b726fe40c843fb481570bb9eb7b13fe229570eb3'}}

SAMPLED_PINS = {'histogram': {'PE0_send.csv': '4725a70efbf648cb2d940d5e734bbb8bcabf46f950e8b205751775395718065e',
               'PE1_send.csv': '9e10f5a231cbb8e4203cf47a9c9ed0ad14f94685f010f828d4734cb03d3af131',
               'PE2_send.csv': 'c2aa2dd001fb3d7503fe88af65276bda969e3bce5d25179a8e4bf2dcd67eb2e9',
               'PE3_send.csv': '3190bcab901d5745a2cb7471902c0db5f0fca785ef3054f9b3803e399f413099'},
 'triangle': {'PE0_send.csv': '0788c2cc0e63aa1af8cccda0a2e1002d3da1e1e846cf840c3f2bbfeb3836114f',
              'PE1_send.csv': 'cd0cfc87f7384890a334e9604079457a1f830c1616949eeb70386d3a1c544d5f',
              'PE2_send.csv': '43f5eb8ec6498472f8f9ed29601e3971e4d4d1a9a4ea74da205cb938960fe2cc',
              'PE3_send.csv': 'b3f145c21d8b878d3c51a72df7ddb4e7d0fd93a762c8f8f9a3b29a00a2ac1e1d'}}


def _digests(name: str, flags: ProfileFlags, tmp: Path) -> dict[str, str]:
    workload = GOLDEN_WORKLOADS[name]()
    profiler = ActorProf(flags)
    workload.run(make_schedules(workload.seed, 1)[0], tmp / "run.aptrc",
                 profiler=profiler)
    out = tmp / "traces"
    profiler.write_traces(out)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


def _full(name, tmp):
    return _digests(name, ProfileFlags.all(enable_timeline=True), tmp)


def _sampled(name, tmp):
    flags = replace(ProfileFlags.all(), logical_sample_interval=16)
    return {k: v for k, v in _digests(name, flags, tmp).items()
            if k.endswith("_send.csv")}


@pytest.mark.parametrize("name", sorted(GOLDEN_WORKLOADS))
def test_write_traces_bytes_are_pinned(name, tmp_path):
    assert _full(name, tmp_path) == PINS[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_WORKLOADS))
def test_sampled_logical_csv_bytes_are_pinned(name, tmp_path):
    assert _sampled(name, tmp_path) == SAMPLED_PINS[name]


if __name__ == "__main__":  # pin regeneration entry point
    import pprint
    import tempfile

    for label, fn in (("PINS", _full), ("SAMPLED_PINS", _sampled)):
        table = {}
        for name in sorted(GOLDEN_WORKLOADS):
            with tempfile.TemporaryDirectory() as tmp:
                table[name] = fn(name, Path(tmp))
        print(f"{label} = ", end="")
        pprint.pprint(table, width=79)
