"""Bit-identity gate for the compiled sampling kernel over the Section-5.4 grid.

Section 5.4 scores SoftArch and the exact integral against Monte Carlo
on every workload (day, week, combined and the representative SPEC
profiles) at every N x S and component count of its grid. The digests
below are the SHA-256 of the raw ``float64`` bytes that
:meth:`~repro.core.kernel.SamplingPlan.sample_ttf` draws for each of
those systems and for each workload's single-component plan, under both
start phases at fixed seeds, plus the bytes of ``invert`` on keys that
include NaN. Any change to the kernel's search or arithmetic must
reproduce them exactly.

The SPEC plans hold 1.3k-1.6k breakpoints, so they exercise the
guided segment search that small hand-written tables never reach; the
combined workload exercises it through every nested inner table.
SPEC profiles come from a short 4k-instruction window (dilated to the
paper's loop, as sec5.4 does) so the gate stays fast; the paper-scale
``ResultSet`` bytes are checked by the benchmark's digests.

To print the table for the current code (only ever needed if the
sampler itself is meant to change)::

    PYTHONPATH=src python tests/test_kernel_identity.py
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np
import pytest

from repro.core import Component, MonteCarloConfig, SystemModel
from repro.core.kernel import plan_for_component, plan_for_system
from repro.ser.rates import component_rate_per_second

from test_softarch_identity import (
    COUNTS,
    NXS,
    sec54_profiles,
)

WORKLOADS = ("day", "week", "combined", "gzip", "mcf", "swim")
PHASES = ("zero", "random")
TRIALS = 4_096
SEED = 54

#: ``{(kind, workload, N x S, C): (zero-phase sha256, random-phase sha256)}``;
#: component plans carry ``C = 1``: one instance, whatever the count.
PINNED = {
    ('system', 'day', 100000000.0, 1): ('902655cbdef5e016dd80107067dc5bbaf3aa94fb6a4d8d7b330e939577f931dd', '38087a89493e5bb77bcdcb1fe9e2367a6e22bcb77952a11b7f66482adc37d764'),
    ('system', 'day', 100000000.0, 8): ('3bbb78248581dc4338e158c4a15d2b53304a00534adb3e8f6a1f8e5e77d01166', '8f73b1257d548672672714c6648938e5f57ab9e9cbc84382297e5653157ebc8f'),
    ('system', 'day', 100000000.0, 5000): ('1470bf5678bd9989d12e36757edfc3b97e4e09145528bd3570ea02ffffd87793', 'f1a2f31a2c4089728292298c18f5a23ad047cbcf63ea7d15815561430305ebb4'),
    ('system', 'day', 100000000.0, 50000): ('89d5ba4d37579eef3b206109d775693d4fa6185f0eb48f99525754103486f6fa', '55d99611795ec85d81d375ae8a1ba69e5695ee446e06d61cac868c81bd66b305'),
    ('system', 'day', 10000000000.0, 1): ('81e8339d7b2ae0a10a7dd67438dfee29a84f927b135500e18b51475e6018e6cf', '11ab09d216b4c6ba38e7ef633b0e9c7eee19863cd6216c13635f32e192b3cf8c'),
    ('system', 'day', 10000000000.0, 8): ('d86be42dfbd3e77b75e52c5decc46ec95f64d49deb862d45db8ac4bc4c5c8567', '960a8e785cec3941ce0ff19df61a3f8eaf16785b390b35c7433c7e6f894c6649'),
    ('system', 'day', 10000000000.0, 5000): ('354db7e6a095a597be15b3f6d7cf5d2d9c953be31ef2855d7dfa4be0fd800c69', '8c806a919fbf1dcd62b78f668f6403f8393176f5316c5e32deed0d104f369010'),
    ('system', 'day', 10000000000.0, 50000): ('4e7587e83e9b38e8af8e8472462b776d3fe29e5618186af43608a6cab1c40bbf', '7d59470b41fc353c361b105eb58f1535411f7d497f6ff7e6abeb369adff23254'),
    ('system', 'day', 1000000000000.0, 1): ('d32df0459c647a7d5526ed01375ed9a54cf6e855553ace3438d0f5cc892e9162', '9568aab2554897db240aab052d2e483acec8e3fc879802c604c59cd8e40cbdbe'),
    ('system', 'day', 1000000000000.0, 8): ('de30974222e552769749ccdd0c4afb8fb013a7d34fb2cbf5e68923b95379ccb1', '3c70acd96a3f0be7e0f7ee3c184aaecbc3fd7a7aa6beff19534c246e012b7f19'),
    ('system', 'day', 1000000000000.0, 5000): ('9974a9e5fca836b49b7026d0fd419102d8567e8241408b8d0d79c1b665227bf0', 'b4c7601f05a0e4fc1b08f9750221c499454709871a05acd565d00e009ca6e3c6'),
    ('system', 'day', 1000000000000.0, 50000): ('c551c7d9f5da70a39904bc8914beba0316ff0577223bf77e61ceb6c9e10f6f12', 'ba6ea128d942f3c395160503a587593105401c12163afadddb4c7a7f7b2bc10e'),
    ('system', 'week', 100000000.0, 1): ('37de0561ee209988c9a44c7cbecafa097c83d5c1d3207baaf48afcbc9d7b8339', '38ed8537f78a479f4103b20eb97859e825c517d94c50534927f7fd639e7d2b63'),
    ('system', 'week', 100000000.0, 8): ('0ab3e5347f766bede86e6ce909e2669e4674bf70d09d4e0cbdec9851daf06e39', '7c1cecb99b208ac59e0933b31f2a6024a0fe91e7f1022dccb1749fd137d02912'),
    ('system', 'week', 100000000.0, 5000): ('420782e94f9b633113b37757e766b9239f3821b674e117202b8f0127126742ba', 'a12f2d74af521a692d3aa62ded4d0251758c6fb61c301c07f0dace7487cd22db'),
    ('system', 'week', 100000000.0, 50000): ('89d5ba4d37579eef3b206109d775693d4fa6185f0eb48f99525754103486f6fa', 'df418b3626cc05ef5dead3a2a73c00771bce29a5494fdee76c37cbb6b5f218f2'),
    ('system', 'week', 10000000000.0, 1): ('ce81119fe217cae94342982c78627312e5b1a5edcfce5c698a49706ee30184c4', '27cc5fe4ae264bf609309f1c270c5bd0ded43f6df95a2b6d367f36782f036d15'),
    ('system', 'week', 10000000000.0, 8): ('03eb989f43325903738a709291732bb6e6a62b52f34a1572561933207450a636', '830789e837bf8577641d742edaaf62c61f396ed421dcce1ae052349d6f0364e8'),
    ('system', 'week', 10000000000.0, 5000): ('354db7e6a095a597be15b3f6d7cf5d2d9c953be31ef2855d7dfa4be0fd800c69', 'af8703a75df397885795e109a8e4f6028d3236e9df416dc24e0efd5b3367d52b'),
    ('system', 'week', 10000000000.0, 50000): ('4e7587e83e9b38e8af8e8472462b776d3fe29e5618186af43608a6cab1c40bbf', 'da7173f4240516ce3c9a5b2b65e8386f96bf24415dcc894e3f6722d2953134e3'),
    ('system', 'week', 1000000000000.0, 1): ('d32df0459c647a7d5526ed01375ed9a54cf6e855553ace3438d0f5cc892e9162', 'a2e573f2576c9ad50a20ad9416b8dc4fffc516bf48b3f39ce9d6938e1ce534a3'),
    ('system', 'week', 1000000000000.0, 8): ('de30974222e552769749ccdd0c4afb8fb013a7d34fb2cbf5e68923b95379ccb1', 'dd8d2aa2f13519bd5bba7ac8d5fb947ea1421c053c01e5c43cee655ddcdf4b47'),
    ('system', 'week', 1000000000000.0, 5000): ('9974a9e5fca836b49b7026d0fd419102d8567e8241408b8d0d79c1b665227bf0', '9359dcfabe5ae66c1065b1f289445362b744defb6632ab72d42239c2d79a0fa6'),
    ('system', 'week', 1000000000000.0, 50000): ('c551c7d9f5da70a39904bc8914beba0316ff0577223bf77e61ceb6c9e10f6f12', '095f9b5ad296a38a2834c2e273bbfa3a9bdeacc7e9ae19e70363bfbb586bd993'),
    ('system', 'combined', 100000000.0, 1): ('91361f29abf764d4a30fbf8bc4a483980de3949f6a3967f1c94149d685765f1b', '5f1df29cbed0d946baebe7c62fa6d1e20b24fd4ce03f83f874be9aa83a725f4c'),
    ('system', 'combined', 100000000.0, 8): ('3d36eb5e81556d8ba3ea3c77ad8c9a1b660633884f63c5685395d048aef4e846', '577316ff8661c78d2eb130fe7e51a2d9e991b22dca9c9fde113a1c029a6c4340'),
    ('system', 'combined', 100000000.0, 5000): ('7a69977a70cb151d71cce9f1448db40c0f7609d78e0383281f148f514b9ce23e', '5417ae40a198417ade194738bcc6fc99f1683e974d7de7270fc2631506d83fa7'),
    ('system', 'combined', 100000000.0, 50000): ('057b784eabd410aa2538b5a1a7d9d05534953c80a35c94f1a0a284a704b73a30', '03a2138e7461b659b0fb1e88c42c9a1c203ede0e10ee834f976deb55cc608999'),
    ('system', 'combined', 10000000000.0, 1): ('95291090eca2c0b7a14cac7b8fa427ee143ba5bf1d4697e2a9941d06fc53679d', '5e6b865a715fb99aee7339044fe03d43cdf7e9bdea80bb4ec77715c6300e449f'),
    ('system', 'combined', 10000000000.0, 8): ('f9be73fe039d18bd9de9986870da270ba6505c52e82f48df71d30916894f4ba8', '81c65423c1b454e62217cfb450c71e1e5875cd3d4cc60c217a44b12aa24a0837'),
    ('system', 'combined', 10000000000.0, 5000): ('2d4888574f2b5a79eb94031517ccd4b55d79f2c9debbd01449309e5634a3b81a', '08a2ff67dddbc37291d7d2d42a397e3927d81db0f2384861b3f4e0c0222ef39a'),
    ('system', 'combined', 10000000000.0, 50000): ('0740cc47020bf383e1cb879bbf814fecc81cb6ba3b77d4ea103c7d2957963118', '806f089d03f2d332fe797ea179f20acc92d2effb892e7bf460a141c85050e972'),
    ('system', 'combined', 1000000000000.0, 1): ('d03a533131750eb6193de2c8fb5cc860f1cf1d3143252aac7095e15e2961d7bd', '9446fc3e2c75d9b025acaac8289ace59ff50e229536512b3887ede6530a13b7f'),
    ('system', 'combined', 1000000000000.0, 8): ('9795c8dbd6d577a4440ad6929fb03bf97a14fc68af71456aa18e6c730c695715', '57cab8930589b516ac1232500c83ff2a883ba36b80bc4086708e427abffb369d'),
    ('system', 'combined', 1000000000000.0, 5000): ('e1fce3e67b92bf2985b81c59659a87a357b295e9bc9a22a0c5d18bcd76316c78', 'baff157f5c61ea899cd614038ddb6807f65ccac175327c4cf8ab4cfe8c8cc656'),
    ('system', 'combined', 1000000000000.0, 50000): ('90b0445cd78f9e5ac0f0a116878f42aa25b287c2fbca050fe9b7bff1686ec615', '06c8849064104d795ef10aacae748edd6d427a8ce2de5837a591d7d775a77ca0'),
    ('system', 'gzip', 100000000.0, 1): ('bff9134afd2e7c8b341a569bcdd06a19c10151011d6458fac3846ad293e38d60', '1bc1d9fbb51a4ade3105b54307609d3eca95d01ff015abd11477ae26b0c8a4e4'),
    ('system', 'gzip', 100000000.0, 8): ('87d1b51995bd37ee6ba5d5c121b737216972103f672ea2de67b417bdf2b4521d', 'bbf8bb8f52ae9e2af7a5ef317ec7a383351a479d6f30b3379e6773301c7acc53'),
    ('system', 'gzip', 100000000.0, 5000): ('1581677b89adf3a78a9ddbe12e5809c811958d061f21324365247c4ed546bba0', '43701b6de7e0ccad40adfa24ec6a9b0b47f02017df8d4865542c93ac99c70f7c'),
    ('system', 'gzip', 100000000.0, 50000): ('ec0e9384b8b4e09464f5f16df4b9fd82ee86933e5972e27e4ed6a06e3a4a4783', 'da66a10cd5fbaf43557c622310972a1718e11dd1e6cec58e8a8a53f3e81c4045'),
    ('system', 'gzip', 10000000000.0, 1): ('74e9926e4447c6f3e9dc70be059fd52760a12084178b6acc30b941a0b0616eb3', 'f5e7136be77a0130f2368dc1483f1da299c4813af621b74a100fd30cde4efa8b'),
    ('system', 'gzip', 10000000000.0, 8): ('295e68e5f9bd4fa8ce04a6bfead7a3d679553528315f75b828d21eadb7541c43', '8bee14eeeff9878924ff873a3ee942be3d8d05be73e839a519c08631d4a3de09'),
    ('system', 'gzip', 10000000000.0, 5000): ('a896c9356d87e9b1eed8ef21a4fdbb505f72211a648f9364fd5ac96f832399fd', '9fc8ef8a6d9aefabb8c2b7585a8eacb426b6dd232e92536a3150bf416b624231'),
    ('system', 'gzip', 10000000000.0, 50000): ('dc88ce18fb3d5fd6d6ea692430242733071eb25222889daf3cfae42b8e0af498', '084a3e9d735ae4a342c2fc45a28965b1d91e97020a7e23508c082097d68f7770'),
    ('system', 'gzip', 1000000000000.0, 1): ('0b4bdb559dafcb518e558531bb6a68fb9da2e14987540f9cbaa37644c89bca10', 'b631ca1ceddc7556041b2df92fcab2e814b65f47e24c58330c375206b5c15239'),
    ('system', 'gzip', 1000000000000.0, 8): ('a027f775d3bc57cb8d0779f342cdc6c3aff41ca8520b3c03e06befeb426b3e04', '549d3dbdf3e850fc615cc4b5931cdc5e9a06b54d9b0616f99afa9567b4f25ad7'),
    ('system', 'gzip', 1000000000000.0, 5000): ('801e92d9f2ae002ee4d5b43a6909294e0f8735c0ec17dac8fdfbb2648d20c22c', '714766a95c53b659c2cb48412504639399eed4892c0a9d93301e98f3cb0a67eb'),
    ('system', 'gzip', 1000000000000.0, 50000): ('fd4242ce83e09d403a2e9b0e176f559e44638303842416c054ed17d881d2f7af', '508bb6455b78672968e355fced2cf5f68a244d9a7a7828f89b9cadddb179823a'),
    ('system', 'mcf', 100000000.0, 1): ('3285bc2c9a28c296f1f31f24338068e62fb14f217d26523c043a04db67c20752', 'fd075056e6d281566c16c679bb51c8ccf8f2a18416d4f7e5254b457aa3b4089f'),
    ('system', 'mcf', 100000000.0, 8): ('d44d0e693b621d4f0b25ad8a72cf0aee4c90e87b7dff2e86be9adc75e500f23e', '04dff58a07a294b5b1453985ab79b162031dacc853bd735922b041f327e9ab08'),
    ('system', 'mcf', 100000000.0, 5000): ('6ffe298f9f5e43ff60f760f6d7dcb211c113304c18b756093c26ef9b219651d1', 'c895a4397e963602e9a4f1c911b291f3c72f52cbc5b5f5b7421f3d477d016c7c'),
    ('system', 'mcf', 100000000.0, 50000): ('2ca737ec1756c46d0e91c920829345678e1316911a165276dbeb4f8548e7653f', '44e6a1a9a225a53b114711cdbc1a267c10cc338c1ef0f4f7434474287c686c45'),
    ('system', 'mcf', 10000000000.0, 1): ('5a1214e179cf3ff6840f53350735e5a05775db00c1f01a0a4023d96e5b8cb982', '79847ad8ff1b5593e0407f1957b441171fc92f071f5bdbf2d67ea3d62fb4b0ef'),
    ('system', 'mcf', 10000000000.0, 8): ('882c6d74702df16e96b7a239efac0b98b667e284d39c9f26a8e7ba3e279d2b77', '7f75852b0e06d099b246e9cadb5ebb272f3d540a654cc01517b1e4d94b805844'),
    ('system', 'mcf', 10000000000.0, 5000): ('ea35705d81e7312692b9168516f95ab8fe405398dd535b2cf14cfd3657635915', 'd75d1fa9d8fe921c9192b7135874d2f62a5f49cecf39d0f6377d1745cd7a0105'),
    ('system', 'mcf', 10000000000.0, 50000): ('e3daead326212ccf2d8ad253e1ab73538abefc1a1c75dc49c2ce7acf463e8b45', '3f23fff919925fdb9d1ef21d762da7f5022334a3ed797861fad4842f9543d8a8'),
    ('system', 'mcf', 1000000000000.0, 1): ('7c01b9dc53c9732858a236f172e864fca331b931429df1cbe1fb53d2d640bc5a', '79fd6a439643e0989ed73eb0a75ad55e781488c05e574a01446130722adcbabf'),
    ('system', 'mcf', 1000000000000.0, 8): ('e16d10f0205cd768fa7acb57cb5a47bb0ca9cc27e6207e9e9ab326f3281dad9c', 'd531e91e21242d63203191dbde2aa433112e4b298e3c57b2f18a02c71ca81a7a'),
    ('system', 'mcf', 1000000000000.0, 5000): ('b90a5dd687542d01041ca264f5cb685f4d4a7a9cc6f0b889e852a9c77feddb46', 'fe1145e7fe7e3178ec3ebf084d13c2b563ba993d1892d4a71a78d246a9ef97d2'),
    ('system', 'mcf', 1000000000000.0, 50000): ('024663d67be330c6751e1354dc2ad6f11b4b889cf6a31fb0332a7c1b1900bd5e', '3d356bef1f7219d0cb356f9dd386866a7ffe34f1187c6ffbe069b1deb42d5b0b'),
    ('system', 'swim', 100000000.0, 1): ('79c73f7cef4e4b8a5c5cda16e0121ce3ec679ee255805c6aacbfeb4bc7fd1b2a', '61271581e885f1ecac333a4087404879cf39d857724b24ea67533bc70f0c1871'),
    ('system', 'swim', 100000000.0, 8): ('f25eb56845b1101f5a7fcf2dbf2033f05be183ebcdc0029ee20f822518e07b72', '96b8574a70402a92ed8c600bc3ce19853bfe02f688e0045fdf89ee358c88d8ec'),
    ('system', 'swim', 100000000.0, 5000): ('1e6b3f01e49f3becb777d08251c6dc238012958e0b6ffa6214c075c0c6c0e5b6', '0b87a715a7ab316f6e2a628bd5d741ba88c48db8d299e3eb74f40f0f53fc4503'),
    ('system', 'swim', 100000000.0, 50000): ('bf321db0c379aaa4e5a640f02f82a7452e0edc4257acae760f9b1df8905e03d2', 'b43176f43186735077373117d7ebde84152adb228d24614aa670f18cad2bb0ef'),
    ('system', 'swim', 10000000000.0, 1): ('21b8c3a338e92fed77f11087ab8204e13983bca683cc87cefaa4a92001036fb5', '033198491bc58b10aa534b515d2853a1580b73159190e3d04fbfbcbb5b9378d7'),
    ('system', 'swim', 10000000000.0, 8): ('0f3b41a44787f837c811b83b9305028f25fb8fbcc8879933ae3bfd7773efc05f', '4f9b2b018d33dffbb1b25a455061eed3e1e6041510d140ded79abd3adb510142'),
    ('system', 'swim', 10000000000.0, 5000): ('70bce2e21a7fb597f0d80a60aa5955de725e92a2993d84d5d8f11c75df45a569', '1e045b6c6b8767a3beb8fa7b18a1f593207a706517d1eac26eb7d053c495b703'),
    ('system', 'swim', 10000000000.0, 50000): ('7223f71c285eed2243c7d69a1de4596cd10659de563fef276de5a7a01fa81592', '3baaaee15be6ba3a0d57f328c16678e40a9087a90ab72a0ed283d4bd229e92b1'),
    ('system', 'swim', 1000000000000.0, 1): ('c27d6eb54cd1d1fa5aeb38afd75a51679db5c2833e99e563ebb67669ad33afe7', '628b9dac4da71f84b4f2da489c1a97062e353d1ee5ebaab0752ea9611b98077e'),
    ('system', 'swim', 1000000000000.0, 8): ('0e8f47e38ea96d57d2effe5037ea69820bb2dd65944cba27a4174883bb128fef', '5788051127d1bd0c8ce3c6200a7bd50985af0f0cbf8ab8dcd157803c179fa96c'),
    ('system', 'swim', 1000000000000.0, 5000): ('cb1e3f3b595be49dccbdc52efc29c596621a0910c53f9ef111d0204eb0b1a382', '553a06228572299c9725ffde3a8732fab344ef4d950d746dc653a6274426ae01'),
    ('system', 'swim', 1000000000000.0, 50000): ('0b2bed4f7b011d88e98bcb7fd05ecf504fd1578e17dff550a1a3d5ef5e1ea194', '36e9467209806b9dd2066dbc8c49a140578b32f9bd6e9c5d701abf2013d44642'),
    ('component', 'day', 100000000.0, 1): ('902655cbdef5e016dd80107067dc5bbaf3aa94fb6a4d8d7b330e939577f931dd', '38087a89493e5bb77bcdcb1fe9e2367a6e22bcb77952a11b7f66482adc37d764'),
    ('component', 'day', 10000000000.0, 1): ('81e8339d7b2ae0a10a7dd67438dfee29a84f927b135500e18b51475e6018e6cf', '11ab09d216b4c6ba38e7ef633b0e9c7eee19863cd6216c13635f32e192b3cf8c'),
    ('component', 'day', 1000000000000.0, 1): ('d32df0459c647a7d5526ed01375ed9a54cf6e855553ace3438d0f5cc892e9162', '9568aab2554897db240aab052d2e483acec8e3fc879802c604c59cd8e40cbdbe'),
    ('component', 'week', 100000000.0, 1): ('37de0561ee209988c9a44c7cbecafa097c83d5c1d3207baaf48afcbc9d7b8339', '38ed8537f78a479f4103b20eb97859e825c517d94c50534927f7fd639e7d2b63'),
    ('component', 'week', 10000000000.0, 1): ('ce81119fe217cae94342982c78627312e5b1a5edcfce5c698a49706ee30184c4', '27cc5fe4ae264bf609309f1c270c5bd0ded43f6df95a2b6d367f36782f036d15'),
    ('component', 'week', 1000000000000.0, 1): ('d32df0459c647a7d5526ed01375ed9a54cf6e855553ace3438d0f5cc892e9162', 'a2e573f2576c9ad50a20ad9416b8dc4fffc516bf48b3f39ce9d6938e1ce534a3'),
    ('component', 'combined', 100000000.0, 1): ('91361f29abf764d4a30fbf8bc4a483980de3949f6a3967f1c94149d685765f1b', '5f1df29cbed0d946baebe7c62fa6d1e20b24fd4ce03f83f874be9aa83a725f4c'),
    ('component', 'combined', 10000000000.0, 1): ('95291090eca2c0b7a14cac7b8fa427ee143ba5bf1d4697e2a9941d06fc53679d', '5e6b865a715fb99aee7339044fe03d43cdf7e9bdea80bb4ec77715c6300e449f'),
    ('component', 'combined', 1000000000000.0, 1): ('d03a533131750eb6193de2c8fb5cc860f1cf1d3143252aac7095e15e2961d7bd', '9446fc3e2c75d9b025acaac8289ace59ff50e229536512b3887ede6530a13b7f'),
    ('component', 'gzip', 100000000.0, 1): ('bff9134afd2e7c8b341a569bcdd06a19c10151011d6458fac3846ad293e38d60', '1bc1d9fbb51a4ade3105b54307609d3eca95d01ff015abd11477ae26b0c8a4e4'),
    ('component', 'gzip', 10000000000.0, 1): ('74e9926e4447c6f3e9dc70be059fd52760a12084178b6acc30b941a0b0616eb3', 'f5e7136be77a0130f2368dc1483f1da299c4813af621b74a100fd30cde4efa8b'),
    ('component', 'gzip', 1000000000000.0, 1): ('0b4bdb559dafcb518e558531bb6a68fb9da2e14987540f9cbaa37644c89bca10', 'b631ca1ceddc7556041b2df92fcab2e814b65f47e24c58330c375206b5c15239'),
    ('component', 'mcf', 100000000.0, 1): ('3285bc2c9a28c296f1f31f24338068e62fb14f217d26523c043a04db67c20752', 'fd075056e6d281566c16c679bb51c8ccf8f2a18416d4f7e5254b457aa3b4089f'),
    ('component', 'mcf', 10000000000.0, 1): ('5a1214e179cf3ff6840f53350735e5a05775db00c1f01a0a4023d96e5b8cb982', '79847ad8ff1b5593e0407f1957b441171fc92f071f5bdbf2d67ea3d62fb4b0ef'),
    ('component', 'mcf', 1000000000000.0, 1): ('7c01b9dc53c9732858a236f172e864fca331b931429df1cbe1fb53d2d640bc5a', '79fd6a439643e0989ed73eb0a75ad55e781488c05e574a01446130722adcbabf'),
    ('component', 'swim', 100000000.0, 1): ('79c73f7cef4e4b8a5c5cda16e0121ce3ec679ee255805c6aacbfeb4bc7fd1b2a', '61271581e885f1ecac333a4087404879cf39d857724b24ea67533bc70f0c1871'),
    ('component', 'swim', 10000000000.0, 1): ('21b8c3a338e92fed77f11087ab8204e13983bca683cc87cefaa4a92001036fb5', '033198491bc58b10aa534b515d2853a1580b73159190e3d04fbfbcbb5b9378d7'),
    ('component', 'swim', 1000000000000.0, 1): ('c27d6eb54cd1d1fa5aeb38afd75a51679db5c2833e99e563ebb67669ad33afe7', '628b9dac4da71f84b4f2da489c1a97062e353d1ee5ebaab0752ea9611b98077e'),
}

#: ``{workload: sha256 of invert(keys)}`` on the N x S = 1e8, C = 8 plan.
INVERT_PINNED = {
    'day': '92bcb8385a89f2ed1ae2d7d8d7272b728610241684c2237ee223f706cba6fe9b',
    'week': '2a632f0a94cfc28a964c1ae271cb2f160bb4bb3a7ee80ddca3cea886e32acb67',
    'combined': '6e58fff3bfcf9453e965bd8a683943aeca1234ddfa124cd55d14884a8e1e5be0',
    'gzip': 'e061a0e5db61779029434f423bee548a9e5f496dd9b30dec47de585393bd7c10',
    'mcf': '228dea9e38c6e08c9834781095e115ec6aae68fbef0c445be11b1aec591b422e',
    'swim': '3e3c183273ec5ac8cfedf24f5af8059708791b056ed94abda323c1fe56f98596',
}


def _digest(values: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(values, dtype="<f8").tobytes()
    ).hexdigest()


@functools.lru_cache(maxsize=None)
def _component(workload: str, n_times_s: float, count: int) -> Component:
    rate = component_rate_per_second(n_times_s, 1.0)
    return Component(
        workload, rate, sec54_profiles()[workload], multiplicity=count
    )


def _plan(kind: str, workload: str, n_times_s: float, count: int):
    component = _component(workload, n_times_s, count)
    if kind == "system":
        return plan_for_system(SystemModel([component]))
    return plan_for_component(component)


def sample_signature(
    kind: str, workload: str, n_times_s: float, count: int
) -> tuple[str, str]:
    plan = _plan(kind, workload, n_times_s, count)
    return tuple(
        _digest(
            plan.sample_ttf(
                MonteCarloConfig(
                    trials=TRIALS, seed=SEED, chunks=1, start_phase=phase
                )
            )
        )
        for phase in PHASES
    )


def invert_keys(mass: float) -> np.ndarray:
    """NaN between ordinary keys, the extremes, and random interior keys."""
    rng = np.random.default_rng(SEED)
    return np.concatenate(
        [
            [np.nan, np.finfo(float).smallest_subnormal, mass, np.nan],
            rng.uniform(0.0, mass, size=61),
            [mass * 0.5, np.nan],
        ]
    )


def invert_signature(workload: str) -> str:
    intensity = _plan("system", workload, NXS[0], 8).intensity
    return _digest(intensity.invert(invert_keys(intensity.mass)))


CASES = [
    ("system", workload, n_times_s, count)
    for workload in WORKLOADS
    for n_times_s in NXS
    for count in COUNTS
] + [
    ("component", workload, n_times_s, 1)
    for workload in WORKLOADS
    for n_times_s in NXS
]


@pytest.mark.parametrize("kind,workload,n_times_s,count", CASES)
def test_samples_match_pinned_bytes(kind, workload, n_times_s, count):
    assert sample_signature(kind, workload, n_times_s, count) == PINNED[
        (kind, workload, n_times_s, count)
    ]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_invert_with_nan_keys_matches_pinned_bytes(workload):
    assert invert_signature(workload) == INVERT_PINNED[workload]


if __name__ == "__main__":
    print("PINNED = {")
    for case in CASES:
        print(f"    {case!r}: {sample_signature(*case)!r},")
    print("}")
    print("INVERT_PINNED = {")
    for workload in WORKLOADS:
        print(f"    {workload!r}: {invert_signature(workload)!r},")
    print("}")
