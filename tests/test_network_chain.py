"""Every output of one seed-42 round of the benchmark's network-chain
workload, run in-process and pinned by its read-back digests.

The spec generator is a copy of the benchmark's: a test that imported it
would add the benchmark's literals to the constants that Hypothesis draws
from.  The generated specs' text is pinned too, so a drift between the two
copies fails here.
"""

import hashlib
import json
import math

import numpy as np

from cvsim.cli import main
from json_readback import json_digests

#: (modes, specs per round): the network-chain round's sizes
CHAIN_SIZES = ((16, 32), (64, 16), (128, 1), (192, 1))


def chain_spec(rng, n: int) -> dict:
    """Squeezer on every mode, one thermal mode, a two-layer nearest-neighbour
    beam-splitter brickwork, n/8 rotations and n/8 displacements, and the
    four analyses (half/half E_N, one Simon pair, one reduced mode, one
    101x101 Wigner grid)."""
    thermal_mode = int(rng.integers(n))
    gates = [{"kind": "prepare_thermal", "modes": [thermal_mode],
              "params": {"n_bar": float(rng.uniform(0.1, 1.0))}}]
    gates += [{"kind": "squeeze", "modes": [m],
               "params": {"r": float(rng.uniform(0.1, 0.6)),
                          "theta": float(rng.uniform(0, 2 * math.pi))}}
              for m in range(n)]

    def layer(start):
        return [{"kind": "beamsplitter", "modes": [m, m + 1],
                 "params": {"theta": float(rng.uniform(0, math.pi / 2)),
                            "phi": float(rng.uniform(0, 2 * math.pi))}}
                for m in range(start, n - 1, 2)]

    gates += layer(0)
    gates += [{"kind": "rotate", "modes": [int(m)],
               "params": {"phi": float(rng.uniform(0, 2 * math.pi))}}
              for m in rng.choice(n, n // 8, replace=False)]
    gates += layer(1)
    gates += [{"kind": "displace", "modes": [int(m)],
               "params": {"alpha_mag": float(rng.uniform(0, 1)),
                          "alpha_phase": float(rng.uniform(0, 2 * math.pi))}}
              for m in rng.choice(n, n // 8, replace=False)]
    pair = int(rng.integers(n - 1))
    analyses = [
        {"type": "log_negativity", "part_a": list(range(n // 2)), "part_b": list(range(n // 2, n))},
        {"type": "simon", "modes": [pair, pair + 1]},
        {"type": "reduced", "modes": [int(rng.integers(n))]},
        {"type": "wigner", "mode": int(rng.integers(n)), "grid": {"nx": 101, "np": 101}},
    ]
    return {"modes": n, "hbar": 2.0, "gates": gates, "analyses": analyses}


def chain_round(seed: int) -> dict:
    """Label -> spec of one round's distinct specs, in the round's draw order."""
    rng = np.random.default_rng(seed)
    return {f"chain{n}_{i}": chain_spec(rng, n) for n, copies in CHAIN_SIZES for i in range(copies)}


#: SHA-256 of the round's config files, as json.dump writes them, each
#: followed by LF
SPECS_SHA256 = "9744ecb562fc4e8750a84765812dad93209823e53b83790dc74cfc493338f4a5"
#: label -> (values, masked layout) digests of its network output
MANIFEST = {
    "chain16_0": ("e57ed86d962f7cd2055a542598a50072e72cdeac91ad36498b20ead37fb21e45",
                  "a484e98905ad52519d4b1aac60c04b0055ab0022bacdca8f3445c2327bc1c656"),
    "chain16_1": ("c20de282b283f0459adf01abdc8926f95f05360097bf2cae252703f57133a47e",
                  "f7f7323fb15c3e75e0951d115bb5299cf400c6b4c0f71466cb46b9ad75cef291"),
    "chain16_2": ("3c45211af5751f5280e4c13085ed262f2df43a03855edbf3cdf912a3a0337c1c",
                  "a484e98905ad52519d4b1aac60c04b0055ab0022bacdca8f3445c2327bc1c656"),
    "chain16_3": ("b6a33aa6cb0f92419dcac06a7b5127328ff899c9aeff177a18d899676bfcd2e1",
                  "f7f7323fb15c3e75e0951d115bb5299cf400c6b4c0f71466cb46b9ad75cef291"),
    "chain16_4": ("e6b70ae63728232bfa552d3050ba988e5010ed9b4d0af9caf5d084abd8e38686",
                  "f7f7323fb15c3e75e0951d115bb5299cf400c6b4c0f71466cb46b9ad75cef291"),
    "chain16_5": ("08cde04e030c527dff6a83e0ca8293e7b729aa8658210dbd266712de8db8bd73",
                  "f7f7323fb15c3e75e0951d115bb5299cf400c6b4c0f71466cb46b9ad75cef291"),
    "chain16_6": ("753ea7f9c69bc66bd4e320a721974e58523c5bf95a773db308c493c5c8c27193",
                  "a484e98905ad52519d4b1aac60c04b0055ab0022bacdca8f3445c2327bc1c656"),
    "chain16_7": ("05eaffad82c52c8653ec1fb42af13b905cf3ae53f6f1ee801eb6b4ccf3152db1",
                  "a484e98905ad52519d4b1aac60c04b0055ab0022bacdca8f3445c2327bc1c656"),
    "chain16_8": ("1edb63cdb17461c7a557f7449889561b3b2dcee412e5e4e8bde415764a2c42d0",
                  "f7f7323fb15c3e75e0951d115bb5299cf400c6b4c0f71466cb46b9ad75cef291"),
    "chain16_9": ("e6eef1fa7ae86195cf53bc755faa75e14978beaef98464219c39cf2981f272ed",
                  "f7f7323fb15c3e75e0951d115bb5299cf400c6b4c0f71466cb46b9ad75cef291"),
    "chain16_10": ("3038153c438f4216cd6af6cd61b255a39519aec69b0e633f9523a89c5ef07c81",
                   "f7f7323fb15c3e75e0951d115bb5299cf400c6b4c0f71466cb46b9ad75cef291"),
    "chain16_11": ("be6a8d6aadb97ff0bcf6cb35421172ad9ae8818167b91840567a106ecd63f093",
                   "f7f7323fb15c3e75e0951d115bb5299cf400c6b4c0f71466cb46b9ad75cef291"),
    "chain16_12": ("16894101c4817ac0d39b45b06f254d719438bdd1b5b0c5b6d074184ba676f3d6",
                   "a484e98905ad52519d4b1aac60c04b0055ab0022bacdca8f3445c2327bc1c656"),
    "chain16_13": ("edd9122c8990666aa8cd9ea384a8b7aab853fc37977862157b257c328a2182a4",
                   "a484e98905ad52519d4b1aac60c04b0055ab0022bacdca8f3445c2327bc1c656"),
    "chain16_14": ("3b9aff3ada5d066c2dc60428ab39dd2efd08db5054599b8277d9b05102b7184f",
                   "f7f7323fb15c3e75e0951d115bb5299cf400c6b4c0f71466cb46b9ad75cef291"),
    "chain16_15": ("e29b9800401933c450e131a4470d05262c02f3d9e3d20ea4f4e558dd72a197aa",
                   "a484e98905ad52519d4b1aac60c04b0055ab0022bacdca8f3445c2327bc1c656"),
    "chain16_16": ("aeb81a396ea51c2552ce72068a7259f883ee3333378577377056b16759efff17",
                   "a484e98905ad52519d4b1aac60c04b0055ab0022bacdca8f3445c2327bc1c656"),
    "chain16_17": ("7b78e3b016ce2232948c238d002f872ad55d1b1b57dca277772b25480ecc3b92",
                   "f7f7323fb15c3e75e0951d115bb5299cf400c6b4c0f71466cb46b9ad75cef291"),
    "chain16_18": ("d7a5bc08b076227bfdf1f6f86d7b52a8a3621de6b0fc36afee93bbd9939104e2",
                   "f7f7323fb15c3e75e0951d115bb5299cf400c6b4c0f71466cb46b9ad75cef291"),
    "chain16_19": ("e0c0ede1fdc13f70c6a7644fde019590923bf487b125d64ecb316717460b02f7",
                   "f7f7323fb15c3e75e0951d115bb5299cf400c6b4c0f71466cb46b9ad75cef291"),
    "chain16_20": ("4cdd1469e14f7509614a42c6594066e233edd256094f48be2275be8c7c307ef3",
                   "a484e98905ad52519d4b1aac60c04b0055ab0022bacdca8f3445c2327bc1c656"),
    "chain16_21": ("678d4663d0079ab1e12e8f26d610ee052e018a5b5ed74a9d382f24813f0ef181",
                   "f7f7323fb15c3e75e0951d115bb5299cf400c6b4c0f71466cb46b9ad75cef291"),
    "chain16_22": ("b47a91f044bd5671fb52ec65d6915596988c5f6409f771570285b961f27e895a",
                   "a484e98905ad52519d4b1aac60c04b0055ab0022bacdca8f3445c2327bc1c656"),
    "chain16_23": ("158112c0956ef6c382b42b3a96dd4148644228dee1dc76c6d88bfaf7bc18e453",
                   "f7f7323fb15c3e75e0951d115bb5299cf400c6b4c0f71466cb46b9ad75cef291"),
    "chain16_24": ("c949b6fbbc79d7570b5aa0eef682e73ab5a42d6a4491fc15053613f7282429a1",
                   "a484e98905ad52519d4b1aac60c04b0055ab0022bacdca8f3445c2327bc1c656"),
    "chain16_25": ("adc5a15b165bc7e893eb6a302796c25b2cbacbb4e8b5f53efc4143f5ae6d1b16",
                   "a484e98905ad52519d4b1aac60c04b0055ab0022bacdca8f3445c2327bc1c656"),
    "chain16_26": ("250ee4270549e203a4a4558a3dab0500e47eb8818f442b9bfb4416bb5720e9e3",
                   "f7f7323fb15c3e75e0951d115bb5299cf400c6b4c0f71466cb46b9ad75cef291"),
    "chain16_27": ("15796b104d895c3bb76fd5c17082e53230e42d6f4a6a7a7a272a4511cc606c23",
                   "f7f7323fb15c3e75e0951d115bb5299cf400c6b4c0f71466cb46b9ad75cef291"),
    "chain16_28": ("998cbbb84d6e3a986b5aa168ef2d3407553e7e1073a9dd71345974f958b4ec22",
                   "f7f7323fb15c3e75e0951d115bb5299cf400c6b4c0f71466cb46b9ad75cef291"),
    "chain16_29": ("fe43aff8b8ef1b2b0a70b8adaf4ac592b2e2d8c84f82f95b65c26867fb97832a",
                   "f7f7323fb15c3e75e0951d115bb5299cf400c6b4c0f71466cb46b9ad75cef291"),
    "chain16_30": ("c0d5c6fa846846434c8f8bde4f7a5b9ff1da442395b1d79fd0d5e638e8581db3",
                   "f7f7323fb15c3e75e0951d115bb5299cf400c6b4c0f71466cb46b9ad75cef291"),
    "chain16_31": ("47dacb53318ede5393cb42bc1c9f119e1b5946681f449c225922ed1f94a9f4a7",
                   "f7f7323fb15c3e75e0951d115bb5299cf400c6b4c0f71466cb46b9ad75cef291"),
    "chain64_0": ("dfcb618d50803171a83188ec92c3e4667bed9b4074e8eb294d563684af551da9",
                  "9af0f0794319967a614f08a6ed3c143e4f5383034b1b87b04db8def82fa05d93"),
    "chain64_1": ("2a21b1189c33144ba3b3cf6eedc308152bbb93179a69df82204f6a72b993f434",
                  "821e6300bb2cde567c4f8f850b0fafd832df6525e739282c02b974f14e6cb215"),
    "chain64_2": ("2201c0b723a8d6544a5eab4a7c63c82fe41dfc6e74fdb3b35fbecb3fbfd8ae75",
                  "821e6300bb2cde567c4f8f850b0fafd832df6525e739282c02b974f14e6cb215"),
    "chain64_3": ("1136ffafa8235d1d7362e12d27529d4e1f402f4e33a9097e0f53dcca74065c04",
                  "821e6300bb2cde567c4f8f850b0fafd832df6525e739282c02b974f14e6cb215"),
    "chain64_4": ("926b2f57350d0e33c1ece43aed92dcc5a4db63598a23b2f3efe9cc36e1906dcf",
                  "821e6300bb2cde567c4f8f850b0fafd832df6525e739282c02b974f14e6cb215"),
    "chain64_5": ("235b1da025da94410af20dac07c693b047892028234dc3fb254cf49e62869e9c",
                  "9af0f0794319967a614f08a6ed3c143e4f5383034b1b87b04db8def82fa05d93"),
    "chain64_6": ("7ba6d1a015093930973e15867f4d3c478bcce17bc2aebcd5bcd34a453f1770c7",
                  "9af0f0794319967a614f08a6ed3c143e4f5383034b1b87b04db8def82fa05d93"),
    "chain64_7": ("67294d7364a4d906c4ea23237298036f8e25175bc587e476b46b9cb719f9b3f1",
                  "821e6300bb2cde567c4f8f850b0fafd832df6525e739282c02b974f14e6cb215"),
    "chain64_8": ("4a2ed0b815084144eb134550b7640808082b9c1a0fd501023564bc80dd98d7ea",
                  "821e6300bb2cde567c4f8f850b0fafd832df6525e739282c02b974f14e6cb215"),
    "chain64_9": ("b6e9375e0d2ad5a2d9b27ed02f3f62303c30b6168e657d7608faff8435f83f29",
                  "821e6300bb2cde567c4f8f850b0fafd832df6525e739282c02b974f14e6cb215"),
    "chain64_10": ("eb377f6fea3834ed27cc58a6060d162b22a787d23da1b86ad4923b386129b3c6",
                   "9af0f0794319967a614f08a6ed3c143e4f5383034b1b87b04db8def82fa05d93"),
    "chain64_11": ("39653e26679666f1b25f4ed16b67d8e6517208b4c6abeb8cc34c7fe31f284b00",
                   "9af0f0794319967a614f08a6ed3c143e4f5383034b1b87b04db8def82fa05d93"),
    "chain64_12": ("d94e7c1be2a8f9131bfa4ea4225f2334bdc76ecf54f622e0bc0a1070ed31220f",
                   "821e6300bb2cde567c4f8f850b0fafd832df6525e739282c02b974f14e6cb215"),
    "chain64_13": ("568b4886e274336919d9b7f986928b9b25d7e731f43c3ff4621faa5a08151c15",
                   "821e6300bb2cde567c4f8f850b0fafd832df6525e739282c02b974f14e6cb215"),
    "chain64_14": ("d625a9ab56f7036ab4a9d9407eb8d5e46893170be815000597e71062f5c8448a",
                   "9af0f0794319967a614f08a6ed3c143e4f5383034b1b87b04db8def82fa05d93"),
    "chain64_15": ("bdfc4a8d62369c94601b8a612c45369d1707977630b55f61cbcdd1b6a271e9eb",
                   "821e6300bb2cde567c4f8f850b0fafd832df6525e739282c02b974f14e6cb215"),
    "chain128_0": ("655f9833dfe32fefe30970b4ae64d118fd7514d9b96890ebfc98fd7d12782833",
                   "0861e73b71dc44a0d51255654379e6aaa10dc273f97c96758ba4a62bdaaf01c9"),
    "chain192_0": ("ebe1fea19c2cd8e8b9c64746593c4a81f60b00841991d90631c82d1697f50a5e",
                   "bed03405b35b6a3e836393425b387c631b62e879327bcf79392bdf95322036a7"),
}


def test_the_round_s_specs_are_the_benchmark_s():
    text = "".join(json.dumps(spec) + "\n" for spec in chain_round(42).values())
    assert hashlib.sha256(text.encode()).hexdigest() == SPECS_SHA256


def test_every_output_of_a_seed_42_round_reads_back_as_pinned(tmp_path):
    got = {}
    for label, spec in chain_round(42).items():
        config, out = tmp_path / f"{label}.json", tmp_path / f"{label}.out.json"
        config.write_text(json.dumps(spec))
        main(["network", "--config", str(config), "--out", str(out)])
        got[label] = json_digests(out)
    assert got == MANIFEST
