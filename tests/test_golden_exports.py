"""Export bytes pinned across commits.

Each digest is the sha256 of ``write_lp``, ``write_mps`` and
``write_model_json`` output, for one formulation kind and option set, over
a one-block and a two-block seeded instance.  The same shapes and seeds at
loc_spacing 0.5 and aisle_spacing 1.5 are pinned once per kind, with no
options.  Every kind and option set is pinned once more on the same shapes
with 8 orders, which need 2 or 3 pickers, so that each per-picker family is
checked beyond picker 0.  Any change to a variable or row name, their
order, a coefficient or the file layout changes a digest.  Two builds within
one run agreeing (the determinism tests) cannot catch a name that changes
between commits; these digests can.
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


# the same kinds, option sets and shapes with 8 orders at delta 10 and seed
# 19: 3 pickers on each golden shape and at fractional spacing, 2 on the
# one-aisle shapes, so every per-picker family has copies beyond picker 0
MULTI_PICKER_ORDERS = (8, 10, 19)
GOLDEN_MULTI_PICKER = {
    "P_basic:none":
        "7b823a1541c7e050f312063e06f29382fc13738dc5d2819bb317b5da10dd4169",
    "P_basic:subaisle_cuts":
        "3b2ed3d5c24055530991bac987afe4148db88f94e492c841952b0af9c278c4fb",
    "P_basic:aisle_cuts":
        "105d53df86986975ee7e8a95b8a4a4a41dd6e606690bcc97bae5cafeb31e00ee",
    "P_basic:basic_cuts":
        "2026412ed8f28af9d50f5bb06f52ac14a1dcb25bb48250907871cb5a302b1d1b",
    "P_basic:subaisle_cuts+single_traversing":
        "e2ad09703d969474d2e808e5d06a1c7c6d3f8bd4da3c86b8a35d2758a1452859",
    "P_basic:artificial_vertex_reversal":
        "dc18cd2f8f64685c2acfa19cc2403b4cd3ebd5da3974e28f3765b6b5e9b41bb8",
    "P_basic:column_inequalities":
        "3d1c7ea3fe43dc00a3af06519d6ecc2197b968e2a805b0b83a7a4a7b01ec6560",
    "P_basic:all":
        "1b4701b243ef90228d57edb06a6478a29348ab39230ff5ce723abf3f1d258f02",
    "P_A:none":
        "ed26c85e3a2d401011bb3f6f519ad11fa3100d53c5c57657a244dacbe879ce83",
    "P_A:subaisle_cuts":
        "b6184e48f00e21a860aabecdf12fabbd01536d10f896c94cf38976289bd015d9",
    "P_A:aisle_cuts":
        "d452a467051763c52b90e578394b4928acb8d74c8d35318ac5fc1a8e1080ad72",
    "P_A:basic_cuts":
        "3a308beb7bf56c1689c0d13b3fa1a108da1f080cd4957b64e77ca3c6535d7c1d",
    "P_A:subaisle_cuts+single_traversing":
        "42c50d6da606f9ff208889f76ba135c6a427b37f09107ecb5f270a280df2ec48",
    "P_A:artificial_vertex_reversal":
        "e2961358c89440fb7e58929a141bd593c64c6941c1919275acfc50740b737244",
    "P_A:column_inequalities":
        "6ffc62af32fac694b215ab7cd18b4d3a76b9df0d8d7db464acb9148a7f1bdd2e",
    "P_A:all":
        "8b5e38c78cbc2e49e7cad6bd0d14c7990f0a32a85d4fd3b022967383f5e3deb4",
    "P_G:none":
        "45e7a6a44811372a2af4b96f4506a21fc1eb1c6ec7feff57c67d9287e6afe3e8",
    "P_G:subaisle_cuts":
        "95fa382fd58780e62c5ca9e834231dcd4204b37152b8e6ba2a54ca0feb62b562",
    "P_G:aisle_cuts":
        "208cb17814874c39aed9fac1562c742b22de4dad090fac77439e5645f6b8319e",
    "P_G:basic_cuts":
        "10a1f7a26a0e9eedd0b960e5a7159de6e7b0011612c10e7117abf1100689149b",
    "P_G:subaisle_cuts+single_traversing":
        "62dcf5410026837c1e07b3a4a45d82a6c1ee885a90a311707a05ab7ebb9cadab",
    "P_G:artificial_vertex_reversal":
        "98fe5989770d8305048e27a285db6af9ae96ae8d0e7fba08466cde39a25f4169",
    "P_G:column_inequalities":
        "4b4ee002cc00c85a80e39c37669432ecff990d35b44f6972284e7db8c8cda555",
    "P_G:all":
        "edfee3f33fca68b2001f9c070f9650f9cda36426fdc78e556d50061c2e59f858",
    "P_F:none":
        "497f337bb862d98101339602ec4dd537414c41379859830a0d808ede77e7c156",
    "P_F:subaisle_cuts":
        "8b7606012a20bae702376cddcd374d3bf1b7c0bf50a2dbb42fcb4e0127f10e5d",
    "P_F:aisle_cuts":
        "178ffa63e7ebcddb323ca17a47f20d39fa6ceb6022dc43d50fe893557f21b277",
    "P_F:basic_cuts":
        "baaa78292e3f0c9c2cc0c8d8f9059a920d2cc4661df8c3c5e0543f486955c900",
    "P_F:subaisle_cuts+single_traversing":
        "4a79fe3518d5527bef7bb78c5c22075a48268d9dba7b366c7871c083ce871357",
    "P_F:artificial_vertex_reversal":
        "52276012c856983f5754f60ce01ae0802366f1124169dedaf8b2a210c7045a21",
    "P_F:column_inequalities":
        "6ea14a35da8f177676335c57c7b731cc7c6d8d52492925da65408f965ecbf4ba",
    "P_F:all":
        "94c30250d3ff3c9014edfad0012e963089c8737414ba3668e1eb48123efab947",
    "P_U:none":
        "e68b5875df32040982d350fd49c18f0cb647b4dba5bd7a782a7f61f7b777c402",
    "P_U:subaisle_cuts":
        "690664285b90236b30934adf43b8c240edebee3d69e61b47243e982a353825f7",
    "P_U:aisle_cuts":
        "11d9d30b6931b723346fff49cac731c9910045fbd4f293f0fe8c3b7147a3cfee",
    "P_U:basic_cuts":
        "1e9e77dc7a1b93f990da6e73425f4847573723e81e3e2836a440a1032b80842b",
    "P_U:subaisle_cuts+single_traversing":
        "3a705de69b89f5e26b75d153b35b21edd6b0bc10f62c10d19397a50d7cb65998",
    "P_U:artificial_vertex_reversal":
        "469a96f2f28b3d163678ed3a6861a2a00817ebffbfa58532ffc552d2408d5ed9",
    "P_U:column_inequalities":
        "3e44c8de6cdeac52568ca37df292982e954fea61f3cb6ae9d17301124f0bcbf1",
    "P_U:all":
        "8980e0909037c78a84a4eade0822ab5d2f6ec04ff51ff11b5be765635ef0af83",
    "P_U1:none":
        "56b59eab10b8c8fd4e6f0d5099009015eb8e95bc4d1b9c375d57795d4ec4c610",
    "P_U1:column_inequalities":
        "353aedf1d258c86ffee50a859a5a278d2b3d193f9a8f1fae302209ce478582ac",
    "P_U2:none":
        "930697bd00c1e6ad890067db16dd471e761283593eceb0e220453325dbb5b2f7",
    "P_U2:column_inequalities":
        "fd2eb8619eb5bfb44724cb3f18de1da7d8bee37a09cad695c79cc601a3cfb5d1",
    "P_U2:cross_aisle_bound":
        "2515717892dbee140305bb7f956603c1d901ee79ba18880d50b2a1e6d9c03d94",
    "P_U2:column_inequalities+cross_aisle_bound":
        "61bf82a06143f88c28cc8b1ff49ff7860ccb46c9ff72e1c409678d76af649b91",
    "P_U1:one-aisle":
        "923eabf6374108f54bfef512ed110265a34b3f1cd80f47d2dbdc6ac99714ce10",
    "P_U2:one-aisle":
        "82803614b3a818bebf185fbef2006648b60ae4551a5e52af630d507dbd21d000",
    "P_basic:fractional-spacing":
        "d944200d90e7d7418b8b07138fe06a8e03620cba39375f0da4fcf10fcd694308",
    "P_A:fractional-spacing":
        "4e5b7af4898564adc4f1b39e31bce9920bb671c57463dfc841ac7f582a2bd54f",
    "P_G:fractional-spacing":
        "b3472a002c235d6a9489cc88e8f15df0d2d9b5ad9c7ef741c696a64de37072e1",
    "P_F:fractional-spacing":
        "2055b91b77749ddbc9d267fc508e573d9292bc8b5a683a75bedbcf8a2a466b03",
    "P_U:fractional-spacing":
        "f3a1e8aaad25cc8ff9464755348276afac007307bb02f1ca62fcf4564084f18a",
    "P_U1:fractional-spacing":
        "f1916b1630390db226c3e0a9d9d2355f62631cd705935ce3d7d7f6647a7be296",
    "P_U2:fractional-spacing":
        "3f1dfddd25dc0cf6b10cb424372a2766a7bdca12927400684bcb709d1fc992fa",
}


def _instance(shape, n_orders, delta, seed, orders=None):
    layout = WarehouseLayout(*shape)
    n_orders, delta, seed = orders or (n_orders, delta, seed)
    return generate_instance(layout, n_orders, delta, seed=seed), shared_graph(layout)


def _models(kind, options, instances):
    for instance, graph in instances:
        blocks = instance.layout.n_blocks
        if (kind == "P_U1" and blocks != 1) or (kind == "P_U2" and blocks != 2):
            continue
        yield build_model(instance, graph, kind, options)


def export_models(orders=None) -> dict[str, list]:
    """The models behind each digest, by digest label.  ``orders`` replaces
    every instance's ``(orders, delta, seed)``."""
    instances = [_instance(*spec, orders) for spec in INSTANCES]
    models = {}
    for kind, option_sets in OPTION_SETS.items():
        for names in option_sets:
            options = ModelOptions(**{name: True for name in names})
            models[label(kind, names)] = list(_models(kind, options, instances))
    for key, spec in ONE_AISLE.items():
        models[key] = list(_models(key.split(":")[0], ModelOptions(),
                                   [_instance(*spec, orders)]))
    fractional = [_instance(*spec, orders) for spec in FRACTIONAL_SPACING]
    for kind in OPTION_SETS:
        models[f"{kind}:fractional-spacing"] = list(_models(kind, ModelOptions(), fractional))
    return models


def export_digests(orders=None) -> dict[str, str]:
    digests = {}
    for key, models in export_models(orders).items():
        h = hashlib.sha256()
        for model in models:
            for writer in (write_lp, write_mps, write_model_json):
                h.update(writer(model).encode())
        digests[key] = h.hexdigest()
    return digests


def test_exports_match_golden_digests():
    assert export_digests() == GOLDEN


def test_multi_picker_exports_match_golden_digests():
    assert export_digests(MULTI_PICKER_ORDERS) == GOLDEN_MULTI_PICKER
