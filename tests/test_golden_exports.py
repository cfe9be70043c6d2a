"""Export bytes pinned across commits.

Each digest is the sha256 of ``write_lp``, ``write_mps`` and
``write_model_json`` output, for one formulation kind and option set, over
a one-block and a two-block seeded instance.  The same shapes and seeds at
loc_spacing 0.5 and aisle_spacing 1.5 are pinned once per kind, with no
options.  Any change to a variable or row name, their order, a coefficient
or the file layout changes a digest.  Two builds within one run agreeing
(the determinism tests) cannot catch a name that changes between commits;
these digests can.
"""

import hashlib

from conftest import shared_graph
from pickopt import (ModelOptions, WarehouseLayout, build_model, generate_instance,
                     write_lp, write_model_json, write_mps)

INSTANCES = [((3, 1, 2, 1, 2), 4, 10, 5), ((2, 2, 1, 1, 1), 4, 10, 126)]

ALL_ARC_OPTIONS = ("subaisle_cuts", "aisle_cuts", "basic_cuts", "single_traversing",
                   "artificial_vertex_reversal", "column_inequalities")
ARC_OPTION_SETS = [
    (), ("subaisle_cuts",), ("aisle_cuts",), ("basic_cuts",),
    ("subaisle_cuts", "single_traversing"), ("artificial_vertex_reversal",),
    ("column_inequalities",), ALL_ARC_OPTIONS,
]
# one-aisle layouts, where the origin has a single departure edge
ONE_AISLE = {"P_U1:one-aisle": ((1, 1, 2, 1, 2), 3, 10, 7),
             "P_U2:one-aisle": ((1, 2, 1, 1, 2), 3, 10, 7)}
# the seeded instances at loc_spacing 0.5 and aisle_spacing 1.5, whose float
# objective coefficients take the writers' non-integral branch
FRACTIONAL_SPACING = [((3, 1, 2, 0.5, 1.5), 4, 10, 5), ((2, 2, 1, 0.5, 1.5), 4, 10, 126)]
OPTION_SETS = {
    **{kind: ARC_OPTION_SETS for kind in ("P_basic", "P_A", "P_G", "P_F", "P_U")},
    "P_U1": [(), ("column_inequalities",)],
    "P_U2": [(), ("column_inequalities",), ("cross_aisle_bound",),
             ("column_inequalities", "cross_aisle_bound")],
}


def label(kind: str, names: tuple) -> str:
    if names == ALL_ARC_OPTIONS:
        return f"{kind}:all"
    return f"{kind}:{'+'.join(names) or 'none'}"


# the P_U2 digests include the degree rows at the middle-cross-aisle copies
GOLDEN = {
    "P_basic:none":
        "419e2d6b40376168e52c4653e0bc9e2bb669cc3413ee99c70ca95c868fd138b0",
    "P_basic:subaisle_cuts":
        "c8f5c9a972e52589278b09021bf2f74020c4d5271e2d58ab08a0aaf81a40f9e2",
    "P_basic:aisle_cuts":
        "80be4ca5f7a51cffa1341ddadd89ef1b3bcbd65da7a124561277ae24987a2135",
    "P_basic:basic_cuts":
        "fd5ee01d2e376aaecdd6d321ac57e275579c6414a968b570a9ce1249643c4a4a",
    "P_basic:subaisle_cuts+single_traversing":
        "d167d8d6cff5d97042dd2ed62a7143dcd4fd0ce627fc67bc8ba6f7be31eba97c",
    "P_basic:artificial_vertex_reversal":
        "99348782cc13346d0a44dcb119b4f2b6d3874428ac8d674c229b3cd1087a5fcb",
    "P_basic:column_inequalities":
        "06a0a8d74181d184583ad3cfebc0122027d01773cd45adacf8d0e73bca088efe",
    "P_basic:all":
        "2471ad951cc9169ab2e4ef749d56d6c3c620e0369eaf712dfd36353416699782",
    "P_A:none":
        "ea38c636b58f54a10eef4f45d22e4563c2f9607a83b4ff713808d8ad97a1573a",
    "P_A:subaisle_cuts":
        "707e620b83079b640b837a88aa38ad2383ee938ca418b01a6313d727402facc9",
    "P_A:aisle_cuts":
        "cf26b85075175f26d538353189830e16f4cb4080637e3665656ec65a94774b07",
    "P_A:basic_cuts":
        "7bd1eeff370bcd226fe5cb9f68385b513cd8429fb7e2a1feb6267d7d395266db",
    "P_A:subaisle_cuts+single_traversing":
        "6522d2828002eb884e6116b54ed1b4f83ba149732c4479602a5262ab27999bdc",
    "P_A:artificial_vertex_reversal":
        "336999d4fad5abba71797bc01f36c746fa4f1fbc8f44a91624609d2562578788",
    "P_A:column_inequalities":
        "948bc850d98d32b8de2a79556ee636da9ebf453726b0b129975baed8b388e34c",
    "P_A:all":
        "e7645383f3c44c5937eb39cfa35b6d92d11e6c941caf9cdab116757ac335d495",
    "P_G:none":
        "db385290f2a371fcca9a04f056ff98f335797cc63828b258a7fbc037c0704370",
    "P_G:subaisle_cuts":
        "ad5ff7497609c7f0ed732793020fa9004d7762170188667c9ffa32276a91fce3",
    "P_G:aisle_cuts":
        "377156cde98aab83182037dddd14fae30323e27918b777737559f421821aff6a",
    "P_G:basic_cuts":
        "ead117d99bfb57833f0da923b7d4fecf8177bcc23a1a341751837b3c8c6d7f47",
    "P_G:subaisle_cuts+single_traversing":
        "d567bf97fc08e4e1ad3d48b4a5e6e9ae13593ffd851afeb81d459dc972b2224f",
    "P_G:artificial_vertex_reversal":
        "f6ec80231215ea85f2ff486937d3310955e720e4542531bc483cb661b0645fcf",
    "P_G:column_inequalities":
        "e0231530d13689e51cd5dbafc88afd400bb73726174f69b9c5812788e6af4aba",
    "P_G:all":
        "91b22158a635c68c24cc07fcb137a81f6313c4d3ba4334e270bc07e8925adba1",
    "P_F:none":
        "d6c9063c0d3befb74b3cf248de6ed0a0a75370d912eba42bf561fbad67093d35",
    "P_F:subaisle_cuts":
        "a029dca14820425ef2f31ed13d203ea5295655e45351f59dd5dbb5548c06f336",
    "P_F:aisle_cuts":
        "238eb33a43fd0529439ddf21d029308d9d8a914d174b18f87751d0f4efd0d8b1",
    "P_F:basic_cuts":
        "6dbf020dd466d85dd8d6d7e5450ae695865ae93a2d09b0a744aed9e8ecfa3baf",
    "P_F:subaisle_cuts+single_traversing":
        "1372bd7fc646936f6307c2421f4080b5d07fa8bc278dea2ae9666fb70f4a4ba8",
    "P_F:artificial_vertex_reversal":
        "ba61aa81a6f4f6ca6447861327bac2d7d0199af68cc53494610049b635e94781",
    "P_F:column_inequalities":
        "084e055eca24c3eddc86cc1afc6e5491d6bc296299a7449ae16071d5b12a38df",
    "P_F:all":
        "593e7ce3a0af40dc574c07b9ef10b0e1076bf63e295185fe8f6695f9cc6c0359",
    "P_U:none":
        "1d3e555a775672b969257d04c288a19c9fe6baffed9d2489f837bafab060d7d0",
    "P_U:subaisle_cuts":
        "377e0bd81142e53b2b49374994b72be212d61f94eb3285f386300c796018aab7",
    "P_U:aisle_cuts":
        "8803b16779590b5f391fe516f5e8b5a23808befeb61c6a9f116496eab83d3c98",
    "P_U:basic_cuts":
        "005a419373a60529fd313c2871c341e053aa8095994f7f253cbbc01f82d84085",
    "P_U:subaisle_cuts+single_traversing":
        "4dbc47602462ae5630ab01d90b7098d3412ba56ac92bc33f5de0d9507a06b0b0",
    "P_U:artificial_vertex_reversal":
        "472cecc3de5b796f0b8aa2d1bb5bf41892cbe0d2bee9b8b45b21fb32bf5ae3db",
    "P_U:column_inequalities":
        "ad0a675193029d2abcc82c288f21157d6bd75f4f92b9621d4f47ba58ea75a6c6",
    "P_U:all":
        "2d9ac25389b3611829b6342e0123ed08c4b9ad9e39337262c88e903a9b37e36b",
    "P_U1:none":
        "ab94f266fa89000f878f53519e46b423614124ecb5dc3138ab90b58635314dac",
    "P_U1:column_inequalities":
        "1600dc7193ab0e38c6dfa62eaa3bf6b5ab90d3917cc5f405477c69d2e488f9a2",
    "P_U2:none":
        "0234bd262aa2e52aef429dd31a29ada63a040101f4c3ec0e5abc3539b1937cf9",
    "P_U2:column_inequalities":
        "b4b33fa9de203339c6d20384747fd7332fb9f4566c7a367f803039f480a7f7fd",
    "P_U2:cross_aisle_bound":
        "0e797e6c8b52dd46ee3238b114395fb448e52974fab1dd5a4aac4c7c1c90939e",
    "P_U2:column_inequalities+cross_aisle_bound":
        "9eee9d5941966800e7f001b2d66b80f0001090ab5f6732058445849bd534b906",
    "P_U1:one-aisle":
        "794b49a2adcd72e90cf6d05de4ab5350c889cd8efde9655652a52f6c850e4eed",
    "P_U2:one-aisle":
        "ad1ddcb02ef297a349b843358e536bfef10267af8b049ada68a88d681cfa885d",
    "P_basic:fractional-spacing":
        "15d29503ce736f28de1f28d0642d773cf3f21b807e594c442aaca3074fe4fdb9",
    "P_A:fractional-spacing":
        "14c9f3d569d3371087d887239276e1c151ca964d143e685100e0345490762ea4",
    "P_G:fractional-spacing":
        "15c36d4ecf9d156c98af8f7b48f04d7197bee743e6bfd6dc3701fae52b2dd1c9",
    "P_F:fractional-spacing":
        "2ecd62010924bca90c0723e87c0589eb75f28ac3c8242d004bcb4bd4134dbd4b",
    "P_U:fractional-spacing":
        "9750d09a7ccaadcea48e0322116584ed80e1ed9d53ed445f55e0ffb5580c429f",
    "P_U1:fractional-spacing":
        "653c306fb48405c6328ad3f9232daf14cc71076589b6fc888bd1482fc1dc9470",
    "P_U2:fractional-spacing":
        "52547f7b90e6b2303aa94f89a263463b2acaacdf868fd19c34f0b58bfd40d15e",
}


def _instance(shape, n_orders, delta, seed):
    layout = WarehouseLayout(*shape)
    return generate_instance(layout, n_orders, delta, seed=seed), shared_graph(layout)


def _models(kind, options, instances):
    for instance, graph in instances:
        blocks = instance.layout.n_blocks
        if (kind == "P_U1" and blocks != 1) or (kind == "P_U2" and blocks != 2):
            continue
        yield build_model(instance, graph, kind, options)


def export_models() -> dict[str, list]:
    """The models behind each digest, by digest label."""
    instances = [_instance(*spec) for spec in INSTANCES]
    models = {}
    for kind, option_sets in OPTION_SETS.items():
        for names in option_sets:
            options = ModelOptions(**{name: True for name in names})
            models[label(kind, names)] = list(_models(kind, options, instances))
    for key, spec in ONE_AISLE.items():
        models[key] = list(_models(key.split(":")[0], ModelOptions(), [_instance(*spec)]))
    fractional = [_instance(*spec) for spec in FRACTIONAL_SPACING]
    for kind in OPTION_SETS:
        models[f"{kind}:fractional-spacing"] = list(_models(kind, ModelOptions(), fractional))
    return models


def export_digests() -> dict[str, str]:
    digests = {}
    for key, models in export_models().items():
        h = hashlib.sha256()
        for model in models:
            for writer in (write_lp, write_mps, write_model_json):
                h.update(writer(model).encode())
        digests[key] = h.hexdigest()
    return digests


def test_exports_match_golden_digests():
    assert export_digests() == GOLDEN
