"""Golden trace digests: a refactor must leave every run byte-identical.

The table pins ``Trace.digest()`` of the real and the ideal run of every
scripted schedule, and of seeded lifecycle schedules (seeds 1-3, ten
payments, honest and adversarial) for each protocol, together with a
digest of each lifecycle schedule itself.  It was recorded after
corruption leaks became plain JSON and before the account-model code of
the sidechain and the rollup was merged.  The run digests were recorded
again, with the schedule digests unchanged, when read results began to
carry only the entries their reader had not seen (``base``, ``settled``);
the whole views and verdicts of those runs are pinned across that change
in ``tests/test_properties.py``.  The two adversarial rollup lifecycles of
seeds 1 and 2 were recorded again when every party began to poll the chain
once per block: a client no longer self-publishes the same batch twice in
one round.  The adversarial rollup lifecycle of seed 3 was recorded again
when the ledger began to refuse a replayed txid: a corrupted operator's
``publish-wrong`` that resubmits an identical batch is refused at submit
instead of being committed twice.  Every run digest was recorded again,
with the schedule digests unchanged, when a read result stopped carrying
its tip state and pointer and a settle-ok its constant ``success`` flag:
the reader's whole view gives the first two, and the output tables of
``tests/test_properties.py`` pin that the views and verdicts of those runs
did not move.  Every liquid run digest whose run finalizes a block (all
six lifecycles and every scripted row but ``open-only`` and
``read-heavy``) was recorded again, with the schedule digests unchanged,
when a liquid block lost its ``round`` and ``proposer`` fields and its
digest became its one identity: the round moved into the proposal
message, so every proposal, vote, certificate and block-final note
changed its bytes while the envelopes and their order stayed the same.
Eighteen brick ideal digests (every scripted row but ``open-only``,
``read-heavy`` and ``settle-fresh``, and all six lifecycles) were recorded
again, with every real digest and the schedule digests unchanged, when a
brick pay request stopped carrying a predicted post-state: it names the
transfer (``op``, ``to``, ``amt``), so every pay's submit leak changed its
bytes, and ``overdraft-refused`` loses the leak of the overdraft, which
the interface now refuses at submit as the real client does.
Every liquid and rollup real digest (46 rows) was recorded again, with
every brick and ideal digest and the schedule digests unchanged, when
parties began to act on a schedule from their own ``on_round`` instead of
from a clock pseudo-party's IO nudges: the real traces lost the nudges'
``deliver`` events, so their steps and envelope ids shifted, and rollup
operators now publish before the validator audits in a round.  Every
real digest whose run queues a request (60 rows: 18 brick, 21 liquid and
21 rollup; every ideal digest and the schedule digests unchanged) was
recorded again when the ``request-queued`` note dropped the ``nonce``
(account clients) and ``seq`` (brick clients) that no check reads.
Every liquid and rollup digest (34 scripted and 12 lifecycle rows, real
and ideal; every brick digest and the schedule digests unchanged) was
recorded again when an account state's list of minted deposit txids
became a watermark (``minted_upto``, ``minted_above``): every state, and
every digest or txid over a block or batch that holds one, changed its
bytes, while the event count, the sequence of event types, steps and
rounds, every verdict and every output difference stayed the same.
Every ideal digest (all 67 rows; every real digest and the schedule
digests unchanged) was recorded again when the environment began to hand
the interface the very entries it hands the real clients: an ideal
``input`` carries the entry itself instead of a ``submit`` of the
translated request, which the interface machine now makes with the
protocol's ``EnvTracker``, and a ``submit-result`` names the entry word
(``req``).  ``python tests/golden_audit.py structure`` printed the same
event count and ``(t, step, round)`` digest for all 134 runs before and
after the change, and ``record`` printed the new rows.  The real digest
of every liquid and rollup run with a deposit (13 rows: both
``deposit-mint`` rows, liquid ``deposit-then-withdraw`` and ten
lifecycles; every ideal digest and the schedule digests unchanged) was
recorded again when a real account client began to answer a deposit with
a ``request-queued`` note naming ``deposit``, in place of a
``deposit-sent`` note that nothing read: ``golden_audit.py compare``
showed that no event count, ``(t, step, round)`` sequence, projection or
``diff_outputs`` length moved.  Every ideal digest (67 rows) and every real
digest but four (63 rows; the schedule digests unchanged) was recorded
again in one batch of trace changes: the interface answers a submit with
the ``request-queued`` or ``request-refused`` note a real client writes,
at the submit's step, instead of a ``submit-result``; an output draws no
eid, so NET eids count envelopes alone; ``deliver`` and ``absorb`` events
lost their constant ``channel``; and corruption leaks lost state nothing
reads (the brick client's acks for states it accepted, a ``settled_entry``
that became ``settled_state``, the ``f`` of brick wardens and of liquid
parties, and a liquid ``settle-done`` note's ``height``).
``golden_audit.py compare`` showed that no event count, verdict,
projection or ``diff_outputs`` length moved, that every ideal
``(t, step, round)`` sequence kept its steps and rounds and changed only
where a ``submit-result`` became a ``note``, and that one witness moved,
the ideal one of liquid ``deposit-then-withdraw``, which holds an answer.
A change that moves a digest changes a trace and has to say why.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from l2sim import harness
from l2sim.trace import digest

import golden_audit

# (protocol, schedule label) -> (real digest, ideal digest)
SCRIPTED = {
    ("brick", "corrupt-warden-noise"): (
        "dde5ec789bb7b9ca175213c5b2a670cac3e96ed7a590f9f62689f5bcf8242d36",
        "a8911baf1a9fcd6f8f451f0fc1712cef9c53386486f4dc5e650a5f636757163a"),
    ("brick", "garbage-triggers"): (
        "0534f76191d826be86de64563005c71a7de31af4bc5bd6d605ed46450db06cd8",
        "6735389ad757dc264f994675d77ac3e746453f434b376c52014e67a72ba67eb3"),
    ("brick", "no-pump-delta-flush"): (
        "ee9240ca37a4b196135380a6218c70d5f7a980e3356e1238ac79da93d244af9c",
        "6591c126737c4634e85620f9f9e30481caf4fc5febff2d4f90a1c25a35169d44"),
    ("brick", "open-only"): (
        "78fcdaf3248331787684ddbc5564a560debcf972999ec6919e60b78cad0b20fb",
        "8556d7e614583db37f0f188591e0288e3e22ff443f9422e31008413b3e69c9e7"),
    ("brick", "overdraft-refused"): (
        "467f8f1b22c0ed7fa10bf2be6427f5df42b731a57cbc7a37ea28eb5f8119f593",
        "7d51e6f966ef32e2e4d043ac4838a8a42d4e6baf5e5fe2b8254a8af84d1fdc19"),
    ("brick", "pay-both-directions"): (
        "ab31478706b8701f6e8e79059e2b4f4d426d7eb392ed5507c836494f259a7b32",
        "4f5a4e6e0a9eb2c89809196bb0a6faf5dbc1b5c3daeb2f1dde971f3183ed4191"),
    ("brick", "pay-pipeline"): (
        "9b5ceac8f53fbd9104746e67788e50094b03109dd2d881e084b8a204e76895e5",
        "89b25256d7990d0b77284fbfba0e0eef2eb96fe34de880f4361e36e8157bc6b1"),
    ("brick", "pay-race-same-step"): (
        "0cd42ecc1c0c00da6dc211abad43c5dc27a3f231b8978f8212359925d57a9861",
        "ed9078fc9aaa749832f8c84aaee1a9025fa1c98cd5848f6e455bd872726033bf"),
    ("brick", "read-heavy"): (
        "183567292d1d25ad9e4b428f1ee9eee26202ff0d07737a37b3c6fa9d1298a7de",
        "94ec42485d60ad2e4aab3fc822da5c46f6dd5babd0da4ec614831f099a684d0a"),
    ("brick", "settle-after-traffic"): (
        "de141dfb7be70deece7dd5626d8b255993fe4222dfe02db4ba3a9b401a188650",
        "c2ba2d01b6b814ed356fd291b3bbed6972ff69830f3ab39fbc1bc2f624105d98"),
    ("brick", "settle-fresh"): (
        "5a6172d12466d583bee61d29c34c41719a7ca1b0bbf54bf378f0d00c81934a4c",
        "a27927f8cc05ba330d8fdf82a22294394b42cdfc3f478257ed42d2511158007b"),
    ("brick", "shuffled-delivery"): (
        "7d6075d6e7421d3f5b2814ab9dcb600fd46fcbe23f43e5d6611124850f8e5d1b",
        "6e67620ee3f52aa6f7368ba13f7e5afe6d5c4d3b1064822c454308f1eef00b32"),
    ("brick", "single-pay"): (
        "971a3449dceea82fbffd0cfe307a4d8ce0e40d500df871d244ccdb68a9d8a7f8",
        "33262f34501393c71f6d75216c2848815d429be6e4c3bc8c90c339113c28341a"),
    ("brick", "stale-settle-attempt"): (
        "7a5d27ee37bedab0d694a35625cf2b2b132c582504ce6a2323bd0ca2fbb49fa7",
        "3e9b71b4f3abd9f17d3e83151225216952ada780a14e85d2182b3009bd5180e1"),
    ("brick", "unilateral-exit"): (
        "3295835941b720e949708867f4caddd8d9595533a8996c74b76697bbf60079af",
        "6407217db555b45725cbc4ae86958a77c78360664c1a59929cc093e369ae3510"),
    ("liquid", "client-spam"): (
        "7a7bd28ffba0e130bd72108647064e197386a8f49e90cd8483712440147c9ffc",
        "cf67747c83af74fe5d202a912b7f16bd90565a517783efe8d46165a3b66b87a0"),
    ("liquid", "corrupt-operator-rotation"): (
        "7ddbf40dfdae0705a09d4887844c17f286e3566eb834b5d42a8885b9d90683c6",
        "6e8cf6ab580f518a09c46c0b3683ae5d77c539edba044374699a0d03e34bc7e0"),
    ("liquid", "deposit-mint"): (
        "cd8e526e07761c987d0271ff9ce1dc9d38ab21a7aa8e012cbb4c4ffb68a1b1bf",
        "742f48dc2fe7655d82778ad003d676aaad303206570b17238e84c17ecc38bad3"),
    ("liquid", "deposit-then-withdraw"): (
        "30c247e60a2e897ebc25bcf037b2a6f00085bff49450f5d2a4aa2acf4b469291",
        "dbf7d41bb243bf5ee37ea6c15b4c19bdbb385629cab5ee5134dde352245237fc"),
    ("liquid", "garbage-triggers"): (
        "2e27d2ad74263363fc5af4cc0f974f1c483bc2e98b7978b0a59245bd899a30d7",
        "17b115e97ebfa3d51b7c3d2a4ba97801fc0d07913d8836299ddcbd4617156242"),
    ("liquid", "no-pump-delta-flush"): (
        "df6b845f9677a1ce534ee689b2cb5f2817390f746b9c38daa7a67404bc396c30",
        "34a577b5a295294b6329016b1a1f3caffc46ba8995628f1405c30de57c922ebc"),
    ("liquid", "open-only"): (
        "57f31e2c3aabc438f227cb198badf09c2b496a5657611bbe612fb01cd89ad361",
        "d394c5a56ee294824e8808c7627b8e828773bad9a6aba28f09213795cc6c77a1"),
    ("liquid", "operator-menu-noise"): (
        "29f8095f4d762788875a78113bbca98e666631732c9ddf157725892efc50a16b",
        "7048781ad667289bafc6f23517a7db3377d48df6536e7a99b2d20512470d8c8a"),
    ("liquid", "overdraft-refused"): (
        "66f2b0fa63714e798354bc5f8c347cf7c662755358fa125ecf5c21eb405ef9ac",
        "5a02eb1cce56626d7e40cdaec1ba27c72d2c6e4bee5db2a06adb16f60e3b2c1d"),
    ("liquid", "pay-both-directions"): (
        "6d88db4034aa4685163eb0c692694ddc7ebe7c465334d27985a0f4b146bf6d9d",
        "1641c12c565694893bf3b795a957af7890959ef2bd74db0c448549e8c7171a04"),
    ("liquid", "pay-pipeline"): (
        "c93fa95d34ef9f5bef6758d5e6ec1a36091ed62b36bd6d56873e9f005060745a",
        "2d981f10530827fe9c540e2283e4011e070963a676560c4f337a1d1b265a21a7"),
    ("liquid", "pay-race-same-step"): (
        "7e221d515e6e6fcb832356bc70c21c0a9220048fd097d05f38da745a46a898e5",
        "1ba03d033e0cb372fcc6c85124db0acc80b05a2a67fa7ef35565cf0a792198d5"),
    ("liquid", "read-heavy"): (
        "e2705aedad074ee128f8dad4477e784779bcb7120a2129407ae03a7c12defbca",
        "69d6b1ca83a47ca5818cabf604fc50444271ef8fe40e0b79d5fe12303047f666"),
    ("liquid", "settle-after-traffic"): (
        "c710fe4bdb29ac867babcbd1848077dbe612141cc7b6fe526e8de47567a168c8",
        "9454d8564bf73606bfe13bfc64500db0fe590dc649ae1e6b80bd2622b69c82f6"),
    ("liquid", "settle-fresh"): (
        "bc4872fd23549cc05735ac0e3700b3984465baeb493476dcaad1bbbcb6db9137",
        "c9ea02171704b5c43bb30539df9a0cf16fe8237050ceb2a92554c43e344eccfd"),
    ("liquid", "shuffled-delivery"): (
        "d35a45aedfe5d8dd070b506473aaacd7abcd7f52bbed06fcbe9bd25c8febccbb",
        "5690dd4f272acfa307771b696fa25572f35fdedf6d387469f77776252c928df5"),
    ("liquid", "single-pay"): (
        "2b40131c747f47d29d62fe4a07bc3b12a67a88caac5a0fd66473f540823c654f",
        "21231ba767e13290e238e13569f386645b6ff3e21b2f5e16ab8004ae0f550f5e"),
    ("arbitrum", "deposit-mint"): (
        "9ace0267f12715474a05e88a4b3a418de6ffca5b5e40cd4d89ae0af7e43ef125",
        "d49e66009f3438b7a82f097afbe7e548f732ece03cf21f826932c9eebb4c585a"),
    ("arbitrum", "false-accuse-noise"): (
        "47cd5529301fce7ee3315d6e20f8327b62ef4f7ab13654adfdc2d962a5931849",
        "9650888fffed6fcce087adfbc376546be781e9070622355ac1ce2917c8d41700"),
    ("arbitrum", "fraud-struck"): (
        "ddb46edb36ed00dbcb065e5f9b9f99ff78e92ce599466a9ab321de456432c408",
        "1ac8826458b74be73afbb98cd6b6e02ce8120a8df85f8dee5d74d33f19716632"),
    ("arbitrum", "garbage-triggers"): (
        "c52360144ea4e0d7d16779058822bf2a6bb8ec6368184abfef9087bdd32d4e3f",
        "ffd2a462fc9bf4b8023ed5dd96c4ce500e45cfa1c2e80ef69b55d9177b24b0a6"),
    ("arbitrum", "no-pump-delta-flush"): (
        "b54c869ea415382a4af6f562bb68d0890a1c231229190229d873d201819ef56b",
        "c90eab988e51a445a64f5d5a03086ab492466e23c1ecc084c48abc3e9c1b221b"),
    ("arbitrum", "open-only"): (
        "68a5b6257760e7f8ac8eca3b0a13e6a2111e340b0544d08589598d0cefc21dd5",
        "c330c8d5ea640c82020d846b6a5cc708e0a0f9c8a00a2f07798826957a45e639"),
    ("arbitrum", "overdraft-refused"): (
        "48ef15d7a8bb11f4b9246a46cf245d6abeb097d41e4f5f2a62aa1ae29306c5f7",
        "2a2fdf5f9f6c9c9f0db7aaab06d4a3349d242d19b19e35ee53dabf7420434877"),
    ("arbitrum", "pay-both-directions"): (
        "8b60cfb39590b17a5ef7c67fd0735a6381ee1259a56f05c2eb0b75aa86881838",
        "e92d7fe784dcd70c398a5429e73ae9ecba6334a9e3feca1f3fc56c9da1a70d78"),
    ("arbitrum", "pay-pipeline"): (
        "359d4cd6a1c76dc7b6f5e672c2ca19c23c7078eab518b99fa8db68aa3d2eb89e",
        "b7897099ffbb7e7b0281f7585f9d5d75c5dd5c1ffaef0ca947ea86005a881f28"),
    ("arbitrum", "pay-race-same-step"): (
        "a2011d6b8387c1e9167a61ff47465377cdb7496543ee1dbebb2ad67bed7eac13",
        "262c74697299aa878513a2d26282a101deefaed8bd019e0aec437d081da84862"),
    ("arbitrum", "read-heavy"): (
        "e61802381dd61518f45c1d05324fc64b7e7618fdd1b648f021f4a541c0f979f9",
        "5373257e4a1ff130634e0e2bd1119f6ce734c5cf9a4af3612abbef023b148d14"),
    ("arbitrum", "self-publish-rescue"): (
        "1896604efe8e1eecda38cfd772226382b1311210b7ceb78f4d869bd5f6e5514b",
        "0a556caa39c7d6d01326243701b72487cb85eb36c049b5179512561879f79b9d"),
    ("arbitrum", "settle-after-traffic"): (
        "0139909c41d3ec58a2544f308d0a9f0b2377d388c90c02c6e878b91a64975b5e",
        "ae131d4475804bb7200a612e89e1c846826ba95de30784641a305b28991f2288"),
    ("arbitrum", "settle-fresh"): (
        "18bbb547863fe0aa1d5b10aaad9f67da20630324f7cc0e5f77be74c83ef3cc68",
        "a34a793b1b324bf8f546c761328fbdafedd0d4657129437e63849c2209066461"),
    ("arbitrum", "shuffled-delivery"): (
        "30622ea280fcb7a3cc696acd785884a45bc446ffcff8833245494720f9085f3a",
        "30fc464d0210c1dfbe1a90eec3901ddd3ec2995a14996d132cb67d7d1498211b"),
    ("arbitrum", "single-pay"): (
        "bd36b5e56d30a950c4b49f3fef666b4bf953bef2c206fa2b7c4143af23e05dd4",
        "be6156c036b3069440ff372d72bce7934eb7ad08b6f500612615ae8aadbab960"),
    ("arbitrum", "withdraw-exit"): (
        "4d13c7a4cfb8093a1fac59e37430d3a7dea32b92efae3d26d2082a6fd01917a4",
        "5c35a8c7c6e1919d17f4d018c1c29ff3993d87efac727e2a46c6cb07d6dea9ff"),
}

# (protocol, seed, adversarial) -> (schedule, real, ideal) digests
LIFECYCLE = {
    ("brick", 1, False): (
        "7b491486d3a05d4d144d0fb9c415e7e76cb6ca60e444a0c89b7dacc67196fd03",
        "322df834befef4bb8febb5b738ce52891c6a49ba04e037525c48db86cf1659ea",
        "700a4dd2c1a7f9aa85ce2d08cd10248c1b87a3dd629a16deaccd8240f34c31dc"),
    ("brick", 1, True): (
        "45005cce99fedb08c7f1c60d89fb66c81fdaf5adcd15a5d5e4b7fc1d8dfd0e53",
        "1b592d43f5abd29702a3f201e72d429115c533ab714e2b72001d5cd7cb030010",
        "a8ddae6038f69f142b68bbf67093ffa548a55f7715dce376361db5c505ef727f"),
    ("brick", 2, False): (
        "f9ef6d47ab02a84ec92e8929c4d938b68e23d898cfdca734208fc959ff5a0c6b",
        "dbf47a77cf0c6fb6342d3f83c21cb5f33a875a0e3962b67a92de9d31353cbfcb",
        "c88d19d92cc1b5a0da48859b00251f4c230aa29c88aaa17184422b79814ea1d1"),
    ("brick", 2, True): (
        "028a97ebfec91c21423f4bef0a23d18a8e938b0a0e08ca401e4fc0864d498adc",
        "3dfc64d538b14ea551d4b59d98dfc4615525c7d918e9d95b8390288845ae3815",
        "beebe51cd4743652b2d22db404e196238f757f4eda5efb60356669cd992e49ab"),
    ("brick", 3, False): (
        "6381cd749c6b93fe6d28095fb0a94784ed7ecad2bec85e465c2bbb756aa9efe2",
        "7801d9594ebf1143a05c26b95ae674aa623b9b6fbf500993feaf656d879bf60c",
        "77b747fd97b2b4c5daa88837fe7fcff4d2d4949aae80c0e0f765fab0f25518fb"),
    ("brick", 3, True): (
        "aa53cca3c169a82ec5b2a4d5bc150920c6651eee1d96a004e850d249e1fa648e",
        "ffbf2bcd709e5559178699d5c836a74961868ec86670fe3125a9f4247dfeb3b8",
        "a789f1018d3616baf22345ccf28b15630c406287c2a9f82788196e077a6511f7"),
    ("liquid", 1, False): (
        "671614e4cf31bfba790e5dbcbdee9c7acdef469b24faec149735e90559ce5890",
        "226cc5d6df876c98fbd9b3dc7740bbdd022b1c4e61850cfc05bab7a26688a492",
        "0df8f9f359336bb8c4cc7d777fa4b2d4b724c203a322433e920fc6ffd0f99a16"),
    ("liquid", 1, True): (
        "38871f87b4398e8c60f45665ae6581997da8b80a3457f0fafedd724f5ce11c35",
        "4d409669816dbef3fe4a991bb9f31dd822b4d5ed4cc43dab1e1c7e58d353e3dc",
        "264cc703a38ff3263aea472264d77e7e493438e6c28a628d52f60a82c0e35b6e"),
    ("liquid", 2, False): (
        "2105c5aeb6ee8aedf7aa9f14ecd63921c5d11f5d50a7367a0053e03a63c2ed9b",
        "68e20f498629f437b9f30518f27c79b184a479b91ec4f64fe0a08f243cf11893",
        "08e23403c9c6b83decce03647aa7eec332f72f5868e31dfe62a9e55af31eae9f"),
    ("liquid", 2, True): (
        "ba57234f2d6d51af98f908cb3fd4eecaa7d77d24934cad954065f01807be5760",
        "f3a599a9a955bd9368db8e3e42a275fe2332e1772f6fce6abbc0d66be16bffa1",
        "ec0570f5f269e78f10e40a667ca2f02b3b36cfe196ebe37ad804a88f642257f7"),
    ("liquid", 3, False): (
        "b2c8af5adbdfd31c5166d86924da9e3382226e6490394dacd22a4bc8187e9b28",
        "0cdc6f6b76f18f2ab645a353a4c3bf8ff0a6bbddfb5328fd656bc4aabfaaa3b4",
        "68fdbf80a684422388bf28b3f6fa1250548959671091d83238b9885749803d0b"),
    ("liquid", 3, True): (
        "7fb13eb7060bebd9750a941899aaf1437f11ea1e96165c0db285bd945554cf32",
        "f36eaa0e23a634ef46ed625f213f6cba8622b0e9ac686d2716d2e0639d2aaecf",
        "c31c042e78f00867e0017c3633fe26f95c2192b89c2c00aa88125d609efebfee"),
    ("arbitrum", 1, False): (
        "671614e4cf31bfba790e5dbcbdee9c7acdef469b24faec149735e90559ce5890",
        "91de1e26bce25c2e9b52f120750a3899a2214ce9d604ce295612f6cb32b6d55a",
        "0c06d68c2cbc2502878954255a7c3b7121e70a2728e75805613f2a22af103508"),
    ("arbitrum", 1, True): (
        "b2e16ca7cb0c27e9c67b5a44590bb0bf50942caa03182090b25c2199ae5b73ab",
        "210b896c914caef98d66a00b1e96e73e716fc7b78a3d28bf63d4bbd751cad16b",
        "f64c368f945d362b586f5fbcd7afa04046c64c162c13fb0faf1e36d1fc40b9d3"),
    ("arbitrum", 2, False): (
        "2105c5aeb6ee8aedf7aa9f14ecd63921c5d11f5d50a7367a0053e03a63c2ed9b",
        "1f9d2ee9109303b4ed48b9356a1e0420dd37c3a93f6fb148ec75bf36bef50a01",
        "337efcf2fcd9290397362b6e0d664c8520f20fb66144051223b87ff7501e7ee3"),
    ("arbitrum", 2, True): (
        "1daed42271d646aeb89ce6bffdfaaf2207e95cee8e9f5f5b39150fc3641e95b2",
        "8789ea297413a2819fc2283ae407af72121046f758d5def39db79ec0a11799ca",
        "aae99464787360053dee0562b1fe15ef1c61a32c066ddce0d3ec5c575d229545"),
    ("arbitrum", 3, False): (
        "b2c8af5adbdfd31c5166d86924da9e3382226e6490394dacd22a4bc8187e9b28",
        "131911ea00b2403b0b6dd3cdd8847b13c7ee702a3b3d3dee4c665cf6ba409264",
        "a1ae5b205a8c536a16673f614d262b0009037d1c7d519bf8d51ca1db44ed1dbe"),
    ("arbitrum", 3, True): (
        "68c49da401716fdd713798a708e3b2a93072a08b048235f64ed39413b57e4a81",
        "1003c7e5e2b3c51da2a70be7e6d5bdecd2156b748283372ffdc4524e199ca7d4",
        "691af9e5a9bf7429f49bf7564a9fde454920b39fd4da8f844d7caf31ffb04911"),
}


def digests(name, scn, schedule):
    real, ideal, _ = harness.run_differential(name, scn, schedule)
    return real.trace.digest(), ideal.trace.digest()


def test_table_covers_every_scripted_schedule():
    labels = {(name, label) for name, proto in harness.PROTOCOLS.items()
              for label in harness.scripted_schedules(
                  name, proto.canonical_scenario())}
    assert labels == set(SCRIPTED)


@pytest.mark.parametrize("name, label", list(SCRIPTED))
def test_scripted_digests(name, label):
    scn = harness.protocol(name).canonical_scenario()
    schedule = harness.scripted_schedules(name, scn)[label]
    assert digests(name, scn, schedule) == SCRIPTED[name, label]


@pytest.mark.parametrize("name, seed, adversarial", list(LIFECYCLE))
def test_lifecycle_digests(name, seed, adversarial):
    scn = harness.protocol(name).canonical_scenario()
    schedule = harness.lifecycle_schedule(name, scn, seed, pays=10,
                                          adversarial=adversarial)
    want_schedule, *want_runs = LIFECYCLE[name, seed, adversarial]
    assert digest(schedule) == want_schedule
    assert digests(name, scn, schedule) == tuple(want_runs)


def test_the_audit_records_rows_as_the_table_holds_them():
    """``golden_audit.py record`` prints rows that paste back unchanged:
    one scripted and one lifecycle row, as they stand in this file."""
    text = Path(__file__).read_text()
    rows = {key: golden_audit.row(table, key, scn, sched)
            for table, key, scn, sched in golden_audit.schedules()
            if key in {("liquid", "deposit-then-withdraw"), ("brick", 2, True)}}
    assert len(rows) == 2
    for row in rows.values():
        assert row in text


def test_the_audit_compares_a_tree_with_itself_and_sees_no_move():
    keys = [["brick", "single-pay"], ["liquid", "deposit-then-withdraw"],
            ["arbitrum", 1, True]]
    lines = []
    root = str(Path(__file__).resolve().parents[1])
    assert golden_audit.compare(root, root, keys, out=lines.append) == []
    assert lines == ["moved rows: 0 of 3", "moved parts: none",
                     "unmoved in every row: events, shape, verdict, diff, "
                     "witnesses, projection, digest"]


def test_the_audit_exits_with_status_1_only_when_a_row_moved(tmp_path):
    """``golden_audit.py compare`` exits 0 on the tree against itself and
    1 against a copy whose trace digests all moved."""
    root = Path(__file__).resolve().parents[1]
    shutil.copytree(root / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    moved = tmp_path / "src" / "l2sim" / "trace.py"
    text = moved.read_text()
    assert text.count("h = hashlib.sha256()\n") == 1
    moved.write_text(text.replace("h = hashlib.sha256()\n",
                                  'h = hashlib.sha256(b"moved")\n'))
    audit = [sys.executable, str(Path(__file__).with_name("golden_audit.py")),
             "compare", str(root)]
    same = subprocess.run(audit + [str(root)], capture_output=True, text=True)
    assert same.returncode == 0
    assert "moved rows: 0 of 67" in same.stdout
    other = subprocess.run(audit + [str(tmp_path)], capture_output=True,
                           text=True)
    assert other.returncode == 1
    assert "moved rows: 67 of 67" in other.stdout


def test_the_audit_names_the_parts_of_a_row_that_moved():
    # a renamed hash moves no projection
    a, b = "ab" * 32, "cd" * 32
    assert golden_audit.renumbered({"x": [a, f"tx-{b}", a]}) == \
        golden_audit.renumbered({"x": [b, f"tx-{a}", b]})
    assert golden_audit.renumbered([a, b]) != golden_audit.renumbered([a, a])
    run = {"events": 3, "shape": "s", "witnesses": "w", "projection": "p",
           "digest": "d", "verdicts": [{"record": "verdict",
                                        "property": "safety", "pass": True},
                                       {"record": "da", "g_l2": 1}]}
    old = {"diff": 0, "real": run, "ideal": run}
    new = {"diff": 0, "real": dict(run, digest="e", verdicts=[
        run["verdicts"][0], {"record": "da", "g_l2": 2}]), "ideal": run}
    assert golden_audit.moved_parts(old, old) == []
    assert golden_audit.moved_parts(old, new) == ["real verdict:da",
                                                  "real digest"]


def test_the_audit_finds_where_a_shape_moved():
    old = [["round", 1, 1], ["note", 2, 1], ["ledger-submit", 2, 1]]
    new = [["round", 1, 1], ["exec", 2, 1], ["ledger-submit", 2, 1]]
    assert golden_audit.first_move(old, old) is None
    assert golden_audit.first_move(old, new) == (1, "note", "exec")
    # a step or round that moves counts, and so does a missing tail
    assert golden_audit.first_move(old, old[:1] + [["note", 3, 1]]) == \
        (1, "note", "note")
    assert golden_audit.first_move(old, old[:2]) == (2, "ledger-submit", None)
    assert golden_audit.first_move([], new) == (0, None, "round")


def test_the_audit_rewrites_exactly_the_rows_that_moved(tmp_path):
    """``golden_audit.py rewrite`` on copies of the two table files, with
    one digest changed in one row of each table, restores both copies byte
    for byte and reports exactly those rows; the committed files are never
    rewritten here."""
    here = Path(__file__).resolve().parent
    picked = {"SCRIPTED": ("liquid", "deposit-then-withdraw"),
              "LIFECYCLE": ("arbitrum", 2, True)}
    want = []
    for name in ("test_golden", "test_properties"):
        text = (here / f"{name}.py").read_text()
        for table, (file, _) in golden_audit.COLUMNS.items():
            if file != name:
                continue
            key = picked[table.split("_")[0]]
            start = text.index(f"\n{table} = {{\n")
            at = text.index(f"    {golden_audit.key_text(key)}: (\n", start)
            end = text.index("),\n", at)
            last = text.rindex('"', at, end - 1) + 1   # the row's last digest
            text = text[:last] + "0" * 64 + text[last + 64:]
            want.append((table, key))
        (tmp_path / f"{name}.py").write_text(text)
    lines = []
    moved = golden_audit.rewrite(tmp_path, out=lines.append)
    for name in ("test_golden", "test_properties"):
        assert (tmp_path / f"{name}.py").read_text() \
            == (here / f"{name}.py").read_text()
    assert sorted(moved) == sorted(want) and len(want) == 6
    assert len(lines) == 7 and lines[-1] == "rewrote rows: 6"
    for line, (table, key) in zip(lines, moved):
        assert line.startswith(f"{table} {golden_audit.key_text(key)}: ")
        assert line.count(" -> ") == 1 and f"{'0' * 64} -> " in line
