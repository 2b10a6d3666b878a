"""Golden hashes: exact transcript bytes and suite counts at fixed seeds.

Also checks the shape those bytes come from: ``Transcript.to_dict`` holds
only native JSON types and is a copy the caller may change.

A refactor or speed-up must leave every hash here unchanged.  A change that
alters the RNG stream or the transcript format on purpose updates the hashes
in the same commit and says why.

Each protocol runs under every attack kind it implements
(``runner.PROTOCOL_ATTACKS``), at two seeds: the first with the default
threshold (attacked runs mostly abort at their first check), the second with
threshold 0.5 so that attacked qubits also reach the joint measurement and
the later ceremonies.  Every other kind is a rejection case: its config
fails ``RunConfig.validate`` and runs nothing.
"""

import hashlib
import json

import numpy as np
import pytest

from qconf import stats
from qconf.adversary import ATTACK_KINDS, AttackConfig
from qconf.errors import ContractError
from qconf.protocols import RunConfig, execute_trial
from qconf.protocols.runner import PROTOCOL_ATTACKS

# protocol -> (n_parties, message_length)
SIZES = {
    "mdi_qd_original": (2, 100),
    "mdi_qd_modified": (2, 100),
    "conference3": (3, 100),
    "conferenceN": (4, 100),
    "xor": (3, 50),
}
# seed -> threshold
SEEDS = {11: 0.0, 12: 0.5}
DOS_WEIGHTS = (0.5, 0.5, 0.5, 0.5)


def golden_config(protocol: str, kind: str, seed: int) -> RunConfig:
    n_parties, length = SIZES[protocol]
    attack = AttackConfig(kind, dos_weights=DOS_WEIGHTS if kind == "dos" else None)
    return RunConfig(
        protocol=protocol,
        message_length=length,
        n_parties=n_parties,
        threshold=SEEDS[seed],
        attack=attack,
        seed=seed,
    )


CASES = [
    (protocol, kind, seed)
    for protocol in SIZES
    for kind in ATTACK_KINDS
    for seed in SEEDS
]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def config_hash(config: RunConfig) -> str:
    config.validate()
    return _sha256(execute_trial(config, 0).to_json())


def implemented(config: RunConfig) -> bool:
    """Whether the config's protocol implements its attack; if not, check it is refused.

    ``validate`` rejects the pair with a one-line ``ContractError`` that names
    both, so the config never runs.
    """
    if config.attack.kind in PROTOCOL_ATTACKS[config.protocol]:
        return True
    with pytest.raises(ContractError) as refused:
        config.validate()
    message = str(refused.value)
    assert message == (
        f"attack.kind: protocol {config.protocol!r} does not implement {config.attack.kind!r}"
    )
    return False


# Wide conferences: every joint row has 10 or 16 carriers, too many for the
# joint table.  The honest run's rows are label rows, drawn from their
# support; the dos run (threshold 0.9) puts every interned pure id on the
# wire, the 1-ULP copies of X+ and X- included, so 89 of its 90 rows hold a
# Pauli image and are folded.  Their hashes sit in TRANSCRIPT_HASHES by name.
WIDE_CASES = {
    "conferenceN-10/none/3": RunConfig(
        protocol="conferenceN", message_length=100, n_parties=10, seed=3
    ),
    "conferenceN-16/dos/11": RunConfig(
        protocol="conferenceN",
        message_length=100,
        n_parties=16,
        threshold=0.9,
        attack=AttackConfig("dos", dos_weights=DOS_WEIGHTS),
        seed=11,
    ),
}


def suite_counts() -> list:
    """Sorted (experiment, statistic, successes, samples) of the small suite."""
    experiments, _ = stats.attack_suite(2024, per_check=1000, detection_runs=150)
    table = []
    for name, experiment in experiments.items():
        for statistic, est in stats.run_experiment(experiment).items():
            table.append([name, statistic, round(est.value * est.samples), est.samples])
    return sorted(table)


TRANSCRIPT_HASHES = {
    "mdi_qd_original/none/11": "1525e2be970e5e413fa7cc6887cd148bdbf9a6248208d0a0c36ee0414109c78a",
    "mdi_qd_original/none/12": "9a18423da58f754a9b73ca13fe5bf293882ec601b1f4d1cf8f4e21d0022ecc30",
    "mdi_qd_original/intercept_resend/11": "12749fc889fa52f25d57f096fb40797d7a6d8d69393c2c89ec8687df75f773c4",
    "mdi_qd_original/intercept_resend/12": "7c41d991b32c2546bb0075e8f9eaba28ded0ce17a4c327f4d694411d0cb9a726",
    "mdi_qd_original/entangle_measure/11": "ebbb111da190d665691f40f0eec9e70b44c305c50a278d987a64fcad451abd8a",
    "mdi_qd_original/entangle_measure/12": "84ba482ee843a4ed0ec6c50f34e255377a992d386a5db33f9609b90953e75a81",
    "mdi_qd_original/dos/11": "cc363b8fd5ee55de01e01a7fcd7ce4d5170312f0a3b50005ab4b5e9e98047b08",
    "mdi_qd_original/dos/12": "2970dd6e8b36de35c10023f6c81318dec2d6ec1d33897811ca383cd2de325985",
    "mdi_qd_original/mitm/11": "c0f3a905315745bd60fd63cc93000f3e0ee5309e5d5d420182b953f40e8e2080",
    "mdi_qd_original/mitm/12": "1996f27eb70413990399b265a134059edb902f921bdda6d3fa8396b26a8021e1",
    "mdi_qd_modified/none/11": "e86fe41e91479df0a8e098d502f558873ca8d93ecbfb01b5eda77483644e3337",
    "mdi_qd_modified/none/12": "7f7c9ad3e09dcb8ca695383d43ddef22168f782bafe947ebc10b8cb8b23f33ca",
    "mdi_qd_modified/intercept_resend/11": "8d92bd3079ab5b5f5000e0f7b09c16e7f36874ce56047f0625d22d0e80f03f65",
    "mdi_qd_modified/intercept_resend/12": "8aa1dfd12e6a53356a025853dafeb6480c9059a4c533777eec4019d8a9f16d9d",
    "mdi_qd_modified/entangle_measure/11": "17306d50201e631cdb1f46a28ebfbb23e6d65e190029f786270c6e270cd42f44",
    "mdi_qd_modified/entangle_measure/12": "61fe8c644d1a4172b84e6ea676545dd079f672c05ac61d54932681a1ff088cd0",
    "mdi_qd_modified/dos/11": "d1dc77a76e7faa9f80842302215b81d85f7bb8056858b95f4445e588f19ecfc3",
    "mdi_qd_modified/dos/12": "a44880a34dffc350bf85b600d9d64cc55108c38a0247f927f6d39b230056b718",
    "mdi_qd_modified/mitm/11": "a02151e747fc85eeafb94927fa9679b931691977a05b6e91d96a0ccbaec33c10",
    "mdi_qd_modified/mitm/12": "ae5737381596b9bbb067d50870595836891449e1420298961fa898c0252218ff",
    "conference3/none/11": "633ee2677f3f4600d5f99ed7f105fdb6e9b1ab96bcbf6ec2e32794ac4027c8d7",
    "conference3/none/12": "6dbdd48e87914696f7c7e977cc214e7a09647d0acf56af427e83b23d1780f6c8",
    "conference3/intercept_resend/11": "713fb94ba07c30dc09ec4592481fb0b3838349ec3356a591a2101acf3ca81f5e",
    "conference3/intercept_resend/12": "98b2608fffcb9226ff108a728bba1181703449cf04fed46489974eca3fa35ed4",
    "conference3/entangle_measure/11": "39cca9a8ab0eb6fc9ad3941df965908a5de973d041cffb252640d227d661941d",
    "conference3/entangle_measure/12": "9676dfa515a432308c33606c2e5cb467405c203057aed4860817fe01235fec36",
    "conference3/dos/11": "b9070af2519da9612854fcd500411200a1760145d93ad5564d09a6d407f5a1ed",
    "conference3/dos/12": "dcbe7ab31126a68e6c274c37558c44f582686661ffbde7c96a26b224404ed0fb",
    "conference3/mitm/11": "997b8e42e4c2408c020086b59b17f97c3a5445e927f45ebe6179e3e7551fce41",
    "conference3/mitm/12": "e2600e20d1e6665e11f9bb117cb83868bdda81c4fda3d5230861cad2bc65c37e",
    "conference3/dishonest_middle/11": "b6013dd0940ff3e5c65a3c08523376be89ca941b922267fa38947bec7e56c1da",
    "conference3/dishonest_middle/12": "e3b62a4e7f292ac852b70ee157f88d3201895bd3b6fc5025673f3631c145f5e1",
    "conferenceN/none/11": "e9811a782ccee51d32acae2afc44d2b91470256b61fddc8e9b1c1544d9bd9728",
    "conferenceN/none/12": "6890bd276993590263f0276488b9cb92a0a2a3705458e76e37a147812061b4e8",
    "conferenceN/intercept_resend/11": "c27d3fae9b39271706da416a5e4845f0475f536fbef72dd17754e2cf8380655a",
    "conferenceN/intercept_resend/12": "71dc9321e0c7bdf97b2a74b6f80a3966d839fbe440e9658afc15f6592e17556a",
    "conferenceN/entangle_measure/11": "1f2b191f32892d72922b426adf662642713f57afac41fc93b5f518d2f57d114a",
    "conferenceN/entangle_measure/12": "5690e60a9e0b815ed472c403fd9b76dc972ee91414b40f2e9fcc7681a95a74e1",
    "conferenceN/dos/11": "59c69fd6735c8b37ef987f74b6ecba8c57075c09c5dfe2b5a72a24e838bebb07",
    "conferenceN/dos/12": "12c2690b10c8f075bf5fb43f24bba5dc50ed107c1c70b9005097ae833c1ca18a",
    "conferenceN/mitm/11": "4347453c47fc6087926fc19a7fe6573c85699c4fb1f0a91d931f87022f4a339c",
    "conferenceN/mitm/12": "b7af9eaf9592378662e10b04a4310fcb27c7198bfee99a9246971e20ce9c59c1",
    "conferenceN/dishonest_middle/11": "b74a8f6d464aca6d2ed982bf4d0493d83b982e7f5a85084b6e322dffa09c8c72",
    "conferenceN/dishonest_middle/12": "d4b3e2e4341ba6f2fbccaa9162f1dccde30ec8ee1ad7ce092457e4b1c7fcce93",
    "xor/none/11": "c3c50b5d955722d79e6c7e2349565aca001109f64b7960fe215eca72cbe271c4",
    "xor/none/12": "1221e347c2531e17fc9cd9010ba4c0cd4b3d981932a72d44155f34a6889cc0be",
    "xor/intercept_resend/11": "86206c96c294e6b6f2fed5ba2c1bf24e7f70058252a061b50bb8d855038e9398",
    "xor/intercept_resend/12": "edb8cfd7df6502759bc4f17f8fae17cffb8392e9e519db7280e93e01da124904",
    "xor/entangle_measure/11": "3673a4c0fda4895c71e86018e71f0f0d78a0f94f676a2401958435011077a766",
    "xor/entangle_measure/12": "aa71bfb672fd45951388cc9d950610896bc57146942969f08467516fcd8fa92d",
    "xor/dos/11": "056608420016beafd2be115dadff48e27798d99bc0bf29cc845c48b9601397f0",
    "xor/dos/12": "2ee3cb283c07ca9e83a8bfc04e566af292c8a5394758f2e39b201855191fc9f9",
    "xor/mitm/11": "5278307fe7ca90858e27ecfa057c4071da4be8c7d9118e7bf10b1334efd11357",
    "xor/mitm/12": "03f429e5ae21d50f76a7810e5d0b3086997a8dc4c7af9ed36e6fc26235d5d8c5",
    "xor/dishonest_middle/11": "d1b7a7b683ab1fc38029098dfb8cb34a6758d0c6fc7a1d9039c30bb54de73c18",
    "xor/dishonest_middle/12": "53fdf90bf53b1d94d86181e6d228eb7c2edfd455d22737de3637474260721c7a",
    "xor/dishonest_p1/11": "59c1c27c9072258858075341809a6162f0bfca1b78bf7459497c40f762ba3ceb",
    "xor/dishonest_p1/12": "3f6ec12daa194a546160641b7d09213061f10ba39814440bd4891f6eed57a59a",
    "conferenceN-10/none/3": "b0be11915219ec145da42404cb25e3b11ce7cf99e57c34d780e1e8f31f4903e8",
    "conferenceN-16/dos/11": "27398a816b762b6f58e3fbfb3665befa7688fb8ff817c129da32ef44f01cbc34",
}

SUITE_HASH = "5ad2fb86ee627d5f5b8eb95abe0e98fa78ea1d4fc7bbda4b39a73db89c38438c"

# The small suite's agreement records as ``verify attacks`` writes them.
# SUITE_HASH sees sorted counts only; this pins row order, row names,
# analytic values, bands and verdicts.
RECORDS_HASH = "be1c299be67d4b27d84770a4fc6e0f02b62fd60638defefd5a21e0845b25f747"


# Decoy-hop order.  In each case one link is tapped (intercept and resend),
# the first hop or mask link passes and a later one aborts, so the bytes pin
# the order of every hop's draws and events past the first.  Receivers check
# in party order: on the ring P1, fed by P4, checks first, so the tapped
# P1->P2 link is the second check of hop 2.
# name -> (protocol, n_parties, message_length, tapped link, seed,
#          decoy_reveal events, decoy verdicts, hash)
HOP_CASES = {
    "conferenceN-hop2-abort": (
        "conferenceN", 4, 100, "P1->P2", 30, 8,
        ["continue"] * 5 + ["abort", "continue", "continue"],
        "02e1a0ccf8a7e4fb5ae4baf7ab011d9a3c6afd33189988b7a7c6b69b79ef54c5",
    ),
    "xor-second-mask-link-abort": (
        "xor", 3, 50, "P1->P3", 11, 2,
        ["continue", "abort"],
        "d6cf011a6fe428776bc230083eb90d90b0d3d8358770b11d5072d17ff9283700",
    ),
}


def hop_config(name: str) -> RunConfig:
    protocol, n_parties, length, link, seed, *_ = HOP_CASES[name]
    return RunConfig(
        protocol=protocol,
        message_length=length,
        n_parties=n_parties,
        attack=AttackConfig("intercept_resend", target_links=frozenset({link})),
        seed=seed,
    )


@pytest.mark.parametrize("name", HOP_CASES)
def test_decoy_hop_order(name):
    *_, reveals, verdicts, digest = HOP_CASES[name]
    config = hop_config(name)
    config.validate()
    transcript = execute_trial(config, 0)
    data = transcript.to_dict()
    assert sum(event["type"] == "decoy_reveal" for event in data["events"]) == reveals
    assert data["abort"] == {"aborted": True, "stage": "decoy_verification"}
    decoy_checks = [e for e in data["estimates"] if e["phase"] == "decoy_verification"]
    assert [estimate["verdict"] for estimate in decoy_checks] == verdicts
    assert _sha256(transcript.to_json()) == digest


@pytest.mark.parametrize("protocol,kind,seed", CASES, ids=[f"{p}-{k}-{s}" for p, k, s in CASES])
def test_transcript_bytes(protocol, kind, seed):
    config = golden_config(protocol, kind, seed)
    if implemented(config):
        assert config_hash(config) == TRANSCRIPT_HASHES[f"{protocol}/{kind}/{seed}"]


@pytest.mark.parametrize("name", WIDE_CASES)
def test_wide_transcript_bytes(name):
    assert config_hash(WIDE_CASES[name]) == TRANSCRIPT_HASHES[name]


def test_suite_counts():
    assert _sha256(json.dumps(suite_counts())) == SUITE_HASH


def test_suite_records():
    records = stats.run_attack_suite(7, per_check=300, detection_runs=30)
    assert _sha256(json.dumps(stats.records_to_summary(records))) == RECORDS_HASH


JSON_TYPES = (dict, list, str, int, float, bool, type(None))


def assert_json_native(node, path="transcript"):
    """Every node's exact type is a JSON type: no numpy scalars, no tuples."""
    assert type(node) in JSON_TYPES, f"{path}: {type(node).__name__}"
    if type(node) is dict:
        for key, value in node.items():
            assert type(key) is str, f"{path}: key {key!r}"
            assert_json_native(value, f"{path}.{key}")
    elif type(node) is list:
        for i, value in enumerate(node):
            assert_json_native(value, f"{path}[{i}]")


def scribble(node):
    """Change every container of a JSON tree in place."""
    if type(node) is dict:
        for value in node.values():
            scribble(value)
        node["scribbled"] = True
    elif type(node) is list:
        for value in node:
            scribble(value)
        node.append("scribbled")


def scribble_transcript_dict(data: dict) -> None:
    """Change a ``to_dict`` result everywhere it promises a fresh copy.

    That is every container of the directly set fields, each events,
    estimates and key-stages list, and each item of those lists; the values
    inside an item are shared with the transcript, which never changes them.
    """
    for name in ("events", "estimates", "key_stages"):
        for item in data[name]:
            item.clear()
        data[name].append({})
    for name in ("config", "outputs", "abort", "adversary", "secrets"):
        scribble(data[name])
    data["scribbled"] = True


@pytest.mark.parametrize("protocol,kind,seed", CASES, ids=[f"{p}-{k}-{s}" for p, k, s in CASES])
def test_transcript_dict_is_json_native(protocol, kind, seed):
    config = golden_config(protocol, kind, seed)
    if not implemented(config):
        return
    transcript = execute_trial(config, 0)
    data = transcript.to_dict()
    assert_json_native(data)
    json.dumps(data)  # no default= hook needed
    before = transcript.to_json()
    scribble_transcript_dict(data)
    assert transcript.to_json() == before


# The walks below and the 58 runs above are what keeps transcripts JSON-native:
# nothing converts a value on its way in, so each producer must build native
# types, and ``RunConfig`` makes outside numbers native.
NATIVE_CASES = {
    **{name: hop_config(name) for name in HOP_CASES},
    "hex-messages": RunConfig(
        protocol="conferenceN",
        message_length=100,
        n_parties=3,
        message_source="hex",
        messages_hex=("0123456789abcdef012345678", "f" * 25, "0" * 25),
        seed=5,
    ),
    "conferenceN-10-honest": RunConfig(
        protocol="conferenceN", message_length=100, n_parties=10, seed=3
    ),
}


@pytest.mark.parametrize("name", NATIVE_CASES)
def test_more_transcripts_are_json_native(name):
    config = NATIVE_CASES[name]
    config.validate()
    assert_json_native(execute_trial(config, 0).to_dict())


def test_numpy_scalar_config_is_made_native():
    numpy_config = RunConfig(
        protocol="conferenceN",
        n_parties=np.int64(3),
        message_length=np.int64(100),
        seed=np.int64(4),
        threshold=np.float64(0.0),
        attack=AttackConfig("dos", dos_weights=tuple(np.full(4, 0.5, np.float32))),
    )
    numpy_config.validate()
    transcript = execute_trial(numpy_config, np.int64(0))
    assert_json_native(transcript.to_dict())
    plain = RunConfig(
        protocol="conferenceN",
        n_parties=3,
        message_length=100,
        seed=4,
        threshold=0.0,
        attack=AttackConfig("dos", dos_weights=(0.5, 0.5, 0.5, 0.5)),
    )
    assert transcript.to_json() == execute_trial(plain, 0).to_json()
