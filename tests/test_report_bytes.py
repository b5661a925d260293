"""The bytes of every report and operator file the README's commands write.

Each command runs in-process through ``cli.main`` and every file it writes
is pinned by its sha256.  The pins were taken from the parent of the change
that added this test, except the four quasi1d-lie x reports
(``quasi_1d_assoc_x_2/3``, ``counit_x_2/3``), which were re-pinned when the
quasi1d-lie x sampler stopped repeating the unit column, and the
``uq-rmatrix`` ``rmatrix1d.json`` pin, re-taken when that report began to
name its two-site size ``[[1, 2]]``, and the ``uq-relations`` ``kernel.json``
(8009f3c0aadc107f7b54fac6ddc937c39f797d0b2eef38d5480d8fca72874e7c ->
5ec80cb3d36aead3a9b195e0b8257f6ac9f2f46a10e106fba00a935c74e50aea) and
``singlets.json`` (03eb22e51c0a778ce048fcac130c89dfb61fb312573481f2100e5b7fd8b020e4
-> b847d8b54ce851298e161234d2fa9df881a621435c70da2af10cbae70e6edc13) pins,
re-taken when those reports began to name the sizes they run at, ``[[2, 2]]``
and ``[[1, 2], [2, 2]]``, instead of ``--sizes``; the CHANGES.md entries of
those changes record both digests.  The ``build-op-rmatrix2d`` pin
was taken before the pair placement and ``r2d`` moved onto ``kron_terms``
and the chain steps, and held after, and after ``build-op --rmatrix2d``
began writing ``r2d`` through ``SparseOperator``.  The three Hopf-check runs
(``taft-hopf``, ``uq-antipode``, ``group-hopf``) were pinned at the parent
of the change that added them, where each wrote the same bytes in two runs,
and held after it.  The ``uq-relations`` ``ks.json``
(614badcea4bb02403631cf3d11bedc1c0f3a51749ec72157d973a8aa60cfe001 ->
8d1730bc649dcc4cad3f3bba9e8ceb7f799c9a71a1d6c2f07f5659f789939db9) and
``commutator.json`` (add0515702d20fcbca74505999225c26bef67ba9457f51f81ef398c16238af84
-> 42b80e5f7afdd92d7ae1aba5be1288cdb3352221c8354c832d18367aecd98dec) pins were
re-taken when those checks moved from max-entry residuals of whole matrices
to relative Frobenius residuals of MPOs, named in ``details.residual``.
"""

import contextlib
import hashlib
import io

import pytest

from hopf2d.cli import main

EXAMPLES = ("pivot", "taft", "uq", "group", "lie", "quasi1d-group", "quasi1d-lie", "cross")

# label -> (argv without --out, exit code)
RUNS = {
    **{f"verify-{e}": (["verify", "--example", e, "--sizes", "2x2,3x4",
                        "--checks", "assoc,xycompat,counit,proposition"], 0) for e in EXAMPLES},
    "uq-relations": (["verify", "--example", "uq", "--q", "2.0",
                      "--checks", "ks,commutator,kernel,singlets"], 0),
    "uq-rmatrix": (["verify", "--example", "uq",
                    "--checks", "rmatrix1d,rmatrix2d,semiclassical"], 0),
    "taft-hopf": (["verify", "--example", "taft", "--sizes", "2x2",
                   "--checks", "homomorphism,antipode"], 0),
    "uq-antipode": (["verify", "--example", "uq", "--q", "1.3", "--sizes", "3x3",
                     "--checks", "antipode"], 0),
    "group-hopf": (["verify", "--example", "group", "--sizes", "2x2",
                    "--checks", "homomorphism,antipode"], 0),
    "build-op": (["build-op", "--gen", "S+", "--q", "1.3", "--size", "2x3"], 0),
    "build-op-rmatrix2d": (["build-op", "--rmatrix2d", "--q", "1.5"], 0),
    "peps-d4": (["peps", "--rep", "d4", "--sizes", "1x1,1x2,2x2,3x3"], 0),
    "peps-mutate": (["peps", "--rep", "d4", "--mutate", "drop:0", "--sizes", "1x2"], 1),
    "peps-d2": (["peps", "--rep", "d2", "--solve-boundary", "--sizes", "1x1,1x2,2x1,2x2,3x3"], 0),
}

# label -> file name -> sha256 of the file's bytes
DIGESTS = {
    "verify-pivot": {
        "counit_x.json": "6da5ebc01db85aafc07d80d0b7bb19b687a953169412e0eaaead9811133ad9ef",
        "counit_x_2.json": "73553cd37e60ec4c7c0877be92556a1600dad84589570923811309dde32c3965",
        "counit_x_3.json": "e12dac5dc08b6f5d4b3e293ad9be71b2238ed8d364355d27cae5cf3324cca1cf",
        "counit_y.json": "698eaab138c748b279ef55ecc1ffe323321ca07fb750fd3a919990390a5f1a12",
        "counit_y_2.json": "c44e14e8840220b5124a2bcf0ddb6f5ef90e5448515be4684d0009c612be0295",
        "counit_y_3.json": "ca0a71b047a0f1e66c24afa6499985503b9aaf30800ebbed0e2bd8a81ed9431c",
        "counit_y_4.json": "d6f4f6645da9aaa9eff49fece2ca871d75d0a6001c56fdb5d3f2c57add31c513",
        "quasi_1d_assoc_x.json": "c3114388eaa9eda6653fcce878f552e5de56fafb01a8690ed29a71d3a0621f7f",
        "quasi_1d_assoc_x_2.json": "a7abe65011bcb7ea4823258dcb900175d8d3753ac16f9f175b56d8b92bb5ed48",
        "quasi_1d_assoc_x_3.json": "6a0a6251ea84a850a164bcf4aa143a809c0ad064852f22081d326d5fe0480c20",
        "quasi_1d_assoc_y.json": "0dd1d0ae5c340f40ba1a659ec8b1621755be7c1b2f820291783b64d580a73bcd",
        "quasi_1d_assoc_y_2.json": "852b12bec19f674cdd3e64786e52cf42e80c6e1587d9646f5bdeb85fdb496092",
        "quasi_1d_assoc_y_3.json": "75bc9bb51c5ff70d29d63bd7302bd1c526f0aab386259b4613fc403b67092f02",
        "quasi_1d_assoc_y_4.json": "e6b937b87f110648a9263b9d0a1daea883b01bd574425f7e1b9d0e9a2cec0876",
        "trivial_proposition.json": "ce656d6feb5b04c7c946d64ca932452f3456d27b91b5ba81e82d6ec14fbc634e",
        "xy_compat.json": "18a626f2a601518f1ec8e3bccfc462d0023502a613710422f01cd4e38743ec47",
    },
    "verify-taft": {
        "counit_x.json": "b1a55a5d49059cb147f1ba63d200a534caa00e0604e1f9dcc624b5df57d1f84b",
        "counit_x_2.json": "7835cd2b6fcdfb0a1f44f0853309cf884efc88e3226d321619ee78b1a20197df",
        "counit_x_3.json": "b8213903fe8f412a9f4c3ab80682f5356d328d1da95f51c5cd345cd56fc86cca",
        "counit_y.json": "3f134da536e78b6e8d1c337c1290fa211abb288f03fa96b73f38e2299b702ed5",
        "counit_y_2.json": "ac6e722b9167902429bcb30c6e76bfb4544517a01c4bbc96443d06df158333a4",
        "counit_y_3.json": "f77d1db9f97d5bdfb66840be01d569b0a2a4542e0e80a9ecab51cad8af718f5f",
        "counit_y_4.json": "8c9eb1762a806e6002901064a2827329cd2107e66eb24391b150699aa58a8497",
        "quasi_1d_assoc_x.json": "cf497515f4ef0e62c3c044ffd7cc9d728c8a108c03f7005c55bffd393f78f4b7",
        "quasi_1d_assoc_x_2.json": "024121ce0340e7ee29f14c948d9a0c9a0c34395c4e2c745483785bcf59847f84",
        "quasi_1d_assoc_x_3.json": "1e2ef23ebe1ea3b626d74b4faf37389689b4f1ebde120e8f5dfdcbf5b932c291",
        "quasi_1d_assoc_y.json": "5ecc79bd7dc0fd56364aea40cc2e2bc580df1a564ace421ee8f72f1f602792c3",
        "quasi_1d_assoc_y_2.json": "411aec4faeff68facf5e35d53f7f581671cbe9d6a3902edb1762b51600b5bb48",
        "quasi_1d_assoc_y_3.json": "437676ae4474453cc17459238c3372ad536579714fadbd6ea0a9cae67d5dca4e",
        "quasi_1d_assoc_y_4.json": "b858603da84db5452d094c427d3149affccc520d14a59f426f827df1b080ff28",
        "trivial_proposition.json": "d23c49231adddd57a53019d3dc60f4f4bcf24379df074bff499d9123a9d2bb43",
        "xy_compat.json": "8bb3e516f9aa6f2720d6db2a9b254dcdd94fbd1cc40ed066e0c545537b70cd2c",
    },
    "verify-uq": {
        "counit_x.json": "8eb7294fb3e8be44eb58d84b6fb6c79352ab4da5e57756a402f54df55f8d1da7",
        "counit_x_2.json": "88e9882c6cc091ca9754263b8ff6b13ee367a727789dca6ca01b95be458157bd",
        "counit_x_3.json": "5315bac1732cd83f06fbd428c35349287b2600c799d46f59493f31d822b25977",
        "counit_y.json": "cba0af76e1b734c1bdc12757f294c7fcb4714607a2f2dd9001cd721e58edcef5",
        "counit_y_2.json": "87416c21ccb60e9c61652f57370625cc0c43c869c39ad412d3152ea708fd5587",
        "counit_y_3.json": "565ef14015de5ea8582a3fd222dd7b28d1d564e01c26400f164b1c2475e0dc66",
        "counit_y_4.json": "52dcdbf04fc1099da9fa011e0bca741f76db9eb1c91896786f60dd7940f17bda",
        "quasi_1d_assoc_x.json": "6fa3af0c49f5b36c749a27127ae259140d06fe1771d8f5707dc339180cd55f1a",
        "quasi_1d_assoc_x_2.json": "ecc3ac50643e9cf74bcd5c9cb0e0feeeeeaa0ba2479da94fefd75ee22c17a2e0",
        "quasi_1d_assoc_x_3.json": "981c7c55fbd898d1e1f59f27eb835828ee13359ed35ece995a42822313c2bda7",
        "quasi_1d_assoc_y.json": "6a645cc35c579caa64fa1bf19391bbd9eb4ce90d11525da721c7fefb5dc35204",
        "quasi_1d_assoc_y_2.json": "4d23d5b380d5cf5ebe9d68a0dc645dbfb074578455740ae303dc9f351b8be09f",
        "quasi_1d_assoc_y_3.json": "da2575111df191a63b885daad65ee3c2868930f0efc3c203dc9e627850ec4143",
        "quasi_1d_assoc_y_4.json": "46d8dccf6f45bde37fb6e15fee780abdfb8e0c304f238f20849fa0991f35f725",
        "trivial_proposition.json": "9bb9f60c8fbd2cdd072eb0e38c487c4eeeb29e1830f67b91530faf56ad434a89",
        "xy_compat.json": "8505bc97f69777a800261b79ef41bdfe450662648243d09d37c0ae5058c56eb4",
    },
    "verify-group": {
        "counit_x.json": "7eb676b86fcaa1fde0ac0056ecfd519281f1054de5af3520cf5ee6fa5e23d61b",
        "counit_x_2.json": "198a3fb05d6ef4defc6c9ca4ac912fd771300f8767447bd217625d0d4bb1fd5c",
        "counit_x_3.json": "1071f3002f455a5f22083e57beb8a04057ed6b45bfc61744e0e835838c767144",
        "counit_y.json": "39ed5902425a1a30aeeeffb0a7c303e6d743ad20c21f698ae0aac3fd112581d6",
        "counit_y_2.json": "f19c22164825e79b86fc72792dfa51df8c252d3cad2442d69716379f78ddabe8",
        "counit_y_3.json": "81c8f8c7b92419387c6c7d4090c0c4b51c593046b0ea9036809b97bc70233b4a",
        "counit_y_4.json": "d16738e5468f8433fe42770d459eb606da36076729c6a57ee7925b611602985c",
        "quasi_1d_assoc_x.json": "e362bf0e302e23822c0de7d447b54f3cfb005cf75b45881a18a53792bf54400c",
        "quasi_1d_assoc_x_2.json": "0ce4c05fca19d3c8b5973813ce5063641e7d87c3c817a4077dc0bb2a93c7f364",
        "quasi_1d_assoc_x_3.json": "9816d5152ed4e72f13b9e56039cc59aae9ad155174b2cc40c4d48272c72c5127",
        "quasi_1d_assoc_y.json": "36d67f66585e2ece5c8910ed55c6f33acc9868624fdfeb55eb0e1dfdd6ef68ad",
        "quasi_1d_assoc_y_2.json": "98b218e4aaf6633e3dd6a4032034caa3ea527139ce8d639c6ff24cd5161e7f90",
        "quasi_1d_assoc_y_3.json": "52cb5d5280d8342806160d8834ba365c2438efeb798fd57a59cdaaa5a99507e1",
        "quasi_1d_assoc_y_4.json": "e60e4d3d7d7d4028a86f32cc56f002d7a0536bd883e1e419a5383846e477a9fb",
        "trivial_proposition.json": "0cc422a9952c757491fc3fbbf210325edec8e2ade5aa41350203f6e90b9ad54d",
        "xy_compat.json": "fbba546c0b4f0267ee48de2681f860a67d10339b75965ab69c5dad904fa009c2",
    },
    "verify-lie": {
        "counit_x.json": "0cd56cd72892f162973b990e72f844fef40e94090f373fc37193bd02a8f07a07",
        "counit_x_2.json": "3b4b3c0aad251a82bc40140179076f6a1c8c9df8aefbef76457dbd98faebe70d",
        "counit_x_3.json": "9dac5225b8d58d5e67c41ed648a1f8b15cbcc5457d18b564d1bb9886278d1977",
        "counit_y.json": "edc1704d5875dd6e33b0b19a3520906ec878248f753de31ef447ef44807eb751",
        "counit_y_2.json": "2e540c9fdd759a0f7c9420d9cb905b983d62f22ff847b605f846474880d62863",
        "counit_y_3.json": "0bb8d66929575a16c0f6903cfc288b8bba2bbdb924e36f14dca0527246d4cee3",
        "counit_y_4.json": "a8110ee703dcda4f84877b09a5bfe2e22bedff27b3660fbc4e22f8dbc729e1b8",
        "quasi_1d_assoc_x.json": "c37ee70f7949097d7cf43c64e2ecf8431d7f0738ff50a8df524fb83c40689b4b",
        "quasi_1d_assoc_x_2.json": "0eaa05768cec2b095fc6e4f520280dd02004ff63f7c0d4c5eca6a4e0aedf0d96",
        "quasi_1d_assoc_x_3.json": "f246854fb4248bbb8f381789e1fcef6cc76ef788a02a8732237b2465c17d13a2",
        "quasi_1d_assoc_y.json": "ce546a6b02de6d7aa483a598d14d66a585910f4aa354000d5c9c12144d0b1370",
        "quasi_1d_assoc_y_2.json": "e949e23b4f916cf3d604b6c9481e4ea64ee756e728e57c9c72e4a8a0049f94b6",
        "quasi_1d_assoc_y_3.json": "378b282418dc180768ad390b9a2ad7021a93070f6c246013a4604f6e1fa4e0d5",
        "quasi_1d_assoc_y_4.json": "fac7aaa0f11867a9a9586d9c983754dd9167e55e0e5318f3cf2df161c70c9ac1",
        "trivial_proposition.json": "94023f9cf80d4532675009a05214791c3e8da22ea64fe1ac43b129af625b0d55",
        "xy_compat.json": "c2b25932fb813e3ecad414f349ede8631d0d876f913d19b5b133cea78524e4b5",
    },
    "verify-quasi1d-group": {
        "counit_x.json": "3db1090f76821b8cd1a70605cfb0b4b6c7f543251aac8884053fc08643d6b4e9",
        "counit_x_2.json": "28b891c426daae435fc979c3dbf159b6cde4ef07babf1e78ed7624f71fc3064a",
        "counit_x_3.json": "290671de6b3dc70ef34fb2ebaeef2973eb598478aa0204a620a2501599e20981",
        "counit_y.json": "76086f0598f093c6836083118d3a62961af6aecbcb1c0592d584e64f5b67430a",
        "counit_y_2.json": "d4a51b68c27466c709ef4e0a53f9bea7f6544fab4b08d382c74d2425859a4082",
        "counit_y_3.json": "0c453edcc323d67239b9f2e750abf865ced18a2a2db2e668beae2c10337579a5",
        "counit_y_4.json": "a3a6547039802bc37955ec09383684ef321c1a7b617f9f9d3b985261718020cc",
        "quasi_1d_assoc_x.json": "f56a4ca620694352af7f4ab190e5b02ec0faf21f47c548829e6312babed0e147",
        "quasi_1d_assoc_x_2.json": "4450023fc6324dbbefbcb9f646bfcbcf03e80efc10fb65d32def2265e650ebbb",
        "quasi_1d_assoc_x_3.json": "9151fea7baf4daf9bcad44d9e52ce8c336e7ea94b9e322b2af5e60c9d0acc37b",
        "quasi_1d_assoc_y.json": "5f15e6f522fc2dc836917f3aa291b748293be88873885104da90886fa913ae4f",
        "quasi_1d_assoc_y_2.json": "20958ed75ded33996d86cd8eeed7154ace39fef12e94fad24cd66dbc882de7db",
        "quasi_1d_assoc_y_3.json": "37f81a511bfec147a8e80c9e23c3dd14a7f49b042457d31aa5d236bff440c0c7",
        "quasi_1d_assoc_y_4.json": "085b6dbef1629e88abe0390953542ce4c0c51d8f20f59d076b9e4574267bb2dd",
        "trivial_proposition.json": "e3538c93289799d1aa6328b29c497431092d611111fd3bf9a719fdd9084d16a2",
        "xy_compat.json": "56e9198f9fe1a3cc72607a9d59ab2ba53e0bb1e13d8a085addc1d85566bb5181",
    },
    "verify-quasi1d-lie": {
        "counit_x.json": "fc64fae1dcb2cbec6ed23d1434fb71ac282864f0d28f7a40e24497630a3291ef",
        "counit_x_2.json": "57c45230a589dab0db10cc5d6273a7cb06faa5f52784c8ec84b11b664d2b02d3",
        "counit_x_3.json": "499ab1f2c9381009963eb876127326e18359728c551d89d539aa131227e9fd59",
        "counit_y.json": "56e0045fb45750f741c29b144845eb1567a6d747d6ed986c201195b4173d1082",
        "counit_y_2.json": "d5bddbc89ce0aceec6b33e3ac5e559dd9f180a275b71a7870faf9c7f229c3d0d",
        "counit_y_3.json": "c1e2f972e4fbb3e0bf16e8f27859fc7cb07d2359b15f52f60391b1cf5f5d0791",
        "counit_y_4.json": "4477e0bc54f6eacf2c6f8238c96848b391f6866a23c56082e92d9a9a95cf19a9",
        "quasi_1d_assoc_x.json": "d25c9c02e864d4cb31b3a7222b57a240e04751371983e3eb954095821f361e63",
        "quasi_1d_assoc_x_2.json": "512a8dd09829fa4ffb01e8a6cfd6f1e19d7030f95e0b331a8fedd0877c225b91",
        "quasi_1d_assoc_x_3.json": "9ae890e21ada937b8a50b06a4a99ecbdb0454a80bd15b9031643173d6a726709",
        "quasi_1d_assoc_y.json": "b9828b073c7b4b170bb507f451cfc22e5932fd1871d3d81828979451c9fffa92",
        "quasi_1d_assoc_y_2.json": "f6fa84bc281fd242f9d570fb46ce570ddebae46581d30ce7042d04573a611013",
        "quasi_1d_assoc_y_3.json": "1fdbbafc3754684ec336f98f29d87185f0b24868cb4e25cb8338f03812f23ea7",
        "quasi_1d_assoc_y_4.json": "7aa55bc94123b7c7b3b3bb9c1d17a6298adac0a369be82a01f5deddfc77a327f",
        "trivial_proposition.json": "32b73f1f7732b3574dc2920368c283f610265a0e3bc9f33cbd244923cb77c70b",
        "xy_compat.json": "8623af57147489454de17ae9c9f907faec77c6ac05536b3adf71a836c6cef97a",
    },
    "verify-cross": {
        "counit_x.json": "793f5cfa232537e1f6ca59d71592a4f28cd08ab37d85bf1cdb97013ddee70bf7",
        "counit_x_2.json": "5540b4ed9b873a465bdfab650dc0ea41b442610d6bf0e845d173857807ba84d4",
        "counit_x_3.json": "b971741290eafc4a14c7573ca113cf154393e91d7934429f75ad9c2dbb4be7b8",
        "counit_y.json": "eb97140593d09da8850c2ee9f6d0ac7f7173828cdf20e42f566fe41612b996a5",
        "counit_y_2.json": "3e88f43e8e4421b45517f7730305b1440116efaa620e6546dd7f5ba32b7e3507",
        "counit_y_3.json": "ed4d99449780f680f1ff5d85b7e0ce03487be1eae6ab0ab2e7a040d7f79f9808",
        "counit_y_4.json": "95867ee670bf74c7aa2ecddacad6ce2f8c23d6946319340b461976a73d5f6810",
        "quasi_1d_assoc_x.json": "93bad5d69e9ea92d77483c2aff4d6aa6b95475396af057ea3c8ebe10e885d009",
        "quasi_1d_assoc_x_2.json": "29f3ddcbec14297bd3472742c7c9e94031267a53d2f67090c75aede08e9016f6",
        "quasi_1d_assoc_x_3.json": "1e039394d81d741b5fdbd02eab2fd8b649197dbbc04cf1af3b89ffccb6766e9e",
        "quasi_1d_assoc_y.json": "7fea3def0a640c72139c6713728f4f200176ba8ad935dd1841da5959c3c82a20",
        "quasi_1d_assoc_y_2.json": "7a91157c8ca0a3e314f5ee61f94a8967d0199edbc8107b65cb43ecde8c7dd9b5",
        "quasi_1d_assoc_y_3.json": "95494bdf833431a9c566b78d22198ec54ea81f55b95d7781a2665794d5bc0d52",
        "quasi_1d_assoc_y_4.json": "f6a2f8bce158f9fcd419d544a9d6a3abe488fe8cb03324ef8eea57acd9b99d18",
        "trivial_proposition.json": "4e0019a6042732fe84bc6cac3d5ebb62aa87ceca04a087eb0ccb76facb340d4c",
        "xy_compat.json": "b0aa659457efdec8831bfa3db8e3b5625ecbf88415c5bb210702e40af818e553",
    },
    "uq-relations": {
        "commutator.json": "42b80e5f7afdd92d7ae1aba5be1288cdb3352221c8354c832d18367aecd98dec",
        "kernel.json": "5ec80cb3d36aead3a9b195e0b8257f6ac9f2f46a10e106fba00a935c74e50aea",
        "ks.json": "8d1730bc649dcc4cad3f3bba9e8ceb7f799c9a71a1d6c2f07f5659f789939db9",
        "singlets.json": "b847d8b54ce851298e161234d2fa9df881a621435c70da2af10cbae70e6edc13",
    },
    "uq-rmatrix": {
        "rmatrix1d.json": "afe0f2ed0a95d45436526f34a11e3fac161f1a41d41a08feed688297e564196e",
        "rmatrix2d.json": "97c6e750a2a430f448163eb518fdfb3e83984fad4ef350c9c5ef27bf6f98dea2",
        "semiclassical.json": "416e8529e5e01179583c720913802cc1a619f1f25f70f0e2c8d2888293aa5652",
    },
    "taft-hopf": {
        "antipode_x.json": "9dafacc014dd318d7127c7c4fc7eb4a2df6a9e446f821c3b5ab23616af415e04",
        "antipode_y.json": "8781e93b4add8af946769cd3abd42529ddbb425efa9ffae8b5a379a8834efcbd",
        "homomorphism.json": "ebec28a48e88c4f88ccb01555b05ab268a3918f0d8c3d7d5da45661bf13882c4",
    },
    "uq-antipode": {
        "antipode_x.json": "1adee4f41cdc83cea920847658d939a840a5afbfb7324a6909c2b7c48c5a6739",
        "antipode_y.json": "3aa9c6de1b22d9b2c90f6f6817e9727b9657a5f743f7a0513b3205232e11269a",
    },
    "group-hopf": {
        "antipode_x.json": "d2a5ec6e5b5edb2a5da0845131c5d29b879a5ebef5790a974881b234550142e7",
        "antipode_y.json": "911b57d30f11289a1503c649c0879c734ada10ba7cba01c0eb542e6025b27da6",
        "homomorphism.json": "14262a99c392421163e59c86bafe0754de6c8bedfe60863b59c90532b1303f55",
    },
    "build-op": {
        "boxplus_Sp_2x3.mtx": "d8dd083687a4adc6c2f6c0319aacae1018cd6cf24b306a8044598b409cacf705",
        "manifest.json": "852889d68324bf4515a85ffd09cd4a88c44ef05e37890c4fdae3471c68403fca",
    },
    "build-op-rmatrix2d": {
        "manifest.json": "c2dcd762134c1506b260aa2cf0321f71853cd70163178964f0a267c6ce9a6486",
        "rmatrix2d_q1.5+0j.mtx": "4608ab5e5474294bc00a26966e3dea0e987b6f7acaff9dd3c5e7fa179efc30ab",
    },
    "peps-d4": {
        "peps_d4.json": "edea462d368959fa63af12a898aa825eca6fce950484c86cbfb95fec3f793362",
    },
    "peps-mutate": {
        "peps_d4.json": "794866c2390fe512bb34b4af8c6d935e5fae9df254884668881d299d923e6a7b",
    },
    "peps-d2": {
        "boundary_d2.json": "123700b93652e27de14cd81947ee530c06ee14042d936acf421b9540c50440e3",
    },
}


@pytest.mark.parametrize("label", RUNS)
def test_written_files_are_byte_identical(label, tmp_path):
    argv, code = RUNS[label]
    out = tmp_path / label
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + ["--out", str(out)]) == code
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    assert written == DIGESTS[label]
