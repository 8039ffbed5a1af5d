package session_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"thinslice/internal/analysis/pointsto"
	"thinslice/internal/bench"
	"thinslice/internal/ir"
	"thinslice/internal/papercases"
	"thinslice/internal/randprog"
	"thinslice/internal/sdg"
	"thinslice/internal/session"
)

// buildDigest pins the lowering, points-to and dependence-graph output
// of one program: the SHA-256 of ir.Sprint, the SHA-256 of the sdg
// codec payload, the SHA-256 of the graph's Fingerprint and the SHA-256
// of the pointsto codec payload. The last covers callee sets,
// reachability and points-to sets the graph never reads.
type buildDigest struct {
	ir, sdg, fp, pts string
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// buildOracleSources are every perfbench program, the paper's figures
// and randprog seeds 0–39.
func buildOracleSources() []struct {
	name string
	srcs func() map[string]string
} {
	type prog = struct {
		name string
		srcs func() map[string]string
	}
	var out []prog
	for _, b := range []struct {
		name  string
		scale int
	}{{"nanoxml", 1}, {"nanoxml", 10}, {"nanoxml", 15}, {"javac", 5}, {"jack", 5}, {"mtrt", 5}} {
		out = append(out, prog{fmt.Sprintf("%s@%d", b.name, b.scale),
			func() map[string]string { return bench.Generate(b.name, b.scale).Sources }})
	}
	for name, src := range map[string][2]string{
		"firstnames": {papercases.FirstNamesFile, papercases.FirstNames},
		"toy":        {papercases.ToyFile, papercases.Toy},
		"filebug":    {papercases.FileBugFile, papercases.FileBug},
		"toughcast":  {papercases.ToughCastFile, papercases.ToughCast},
	} {
		out = append(out, prog{name, func() map[string]string { return map[string]string{src[0]: src[1]} }})
	}
	for seed := int64(0); seed < 40; seed++ {
		out = append(out, prog{fmt.Sprintf("rand%d", seed),
			func() map[string]string { return randprog.Generate(seed, randprog.DefaultConfig) }})
	}
	return out
}

// buildOracleDigests were recorded with the whole-program lowering and
// the parallel-capable SDG builders that preceded the single delta
// builder, and the points-to digests with the solver whose sets were
// dense bitsets indexed from object 0. Any change to instruction or
// register numbering, per-node in-edge order, caller lists, edge counts,
// object or context numbering, points-to sets or call edges shows here.
// The sdg column was re-recorded when the sdg payload moved to codec
// version 3 (delta-coded rows); the ir, fp and pts columns did not move.
var buildOracleDigests = map[string]buildDigest{
	"nanoxml@1":  {"99263bd5c4b37a23f2ea947db16e48f8f5491a1af1a60d71bc273754a7c61e0b", "13b2468d776bc5080385391871e4b17a1746479e7055e2f3a43adebcc81b3cac", "25fcbce7b9347551136775df353bed53305d20a983d69948caddfa69a6c2d843", "d2b30f14aaa163630619520c388f414d51ed023a46982b04c0cc900c435b7954"},
	"nanoxml@10": {"0914979af9ba6c05a9a10e1bd0647373adcf7d533f29d6eaaf5aa5b77186e4d8", "85742ab24db9401297f17271e517e63ceb9053cd8f176b118afaedc316ae63f5", "7ab646ecad87f144b1b86b62d89acb1b4347890a41224a454d69be9d4fdecf2d", "b5b50cf7ee30f5826a52778e3667ac644f92ebec9a589e94e6b5edbe10b8ff9f"},
	"nanoxml@15": {"b51ada68a1dd8ed74400be558b96735e41ff558ebbe2c80f4a4c94d1ceae747e", "dd591d8eb98bff3824c2157486de07fa2cb6ea3cea9a5f3d171ccca89bcafde5", "f335e9b0e5f1cbacb3a3d6eb03122d3d94b462d9a7c5f1df5ed1eeb730f9bdcb", "2755d56fd31a6c326dfc7b405dc2651abf24608e4f683d3ba6c8cc2a8c766a36"},
	"javac@5":    {"ba1225312483f4371dfea17d3def9f64c64da7c2c609dc2569f751dd9041e748", "29c76a95a7c5fd169f571b845cace5e2f3fc314c9a59e4e7fea5b790fa0fef15", "a3365896291bb3b9fa6992e1fa001511ee10d3deb233020bc1f9d9f43a8ad62c", "8b60e4ebf24c9a95279ac4d0792e2a380d15587373108526353c09e96eccb08f"},
	"jack@5":     {"52ac6a0dd284e8e8bfa07b8b9cbe45b934741e934bacef661c34ccafd35b7c80", "c1091ead37e5a0a4bd55814a91445a98c2758f78d62f47cd23f111775056de3e", "934e8e27b84ced942e99184112889a50b369a30cba7cb2c9c7049e2bb8474c3d", "9bdfc63458ceb593dc78dc71671035a1ec07553818ce6cf6ae1069b12bfdf7f7"},
	"mtrt@5":     {"5747e1004eaf27acd0ca7de86ca483410deb932544bc5a0433abcfd8fc91679f", "752f1ea6b34a7b24c0cff022ce4560751f71e4a0ec777014bf73342b561f2127", "6aee44c80d0de148099347ac59a6b5f9522fdfee70904e262f4d3d20e4e004ac", "07348e5db9a101501a9e92e15ce7f0e4aa1993e513e68386dafa2408d75e5baf"},
	"firstnames": {"a56653796449c4a0056e5eecaa2cd1db009ce0bf825e53e672cbedf433f479b9", "75276b5e90f2394d4f93a1d379400f925f9aefd4ef0aef5375b65af8a15f0bba", "32bbe8573be3b72fa95563e6825dde880d751696fc73b109a19d586d7d426d06", "8a0e63c0f9dfeac9cf00cb08cb6d18cb1b974afb718414356a9b22775dcaa7b2"},
	"toy":        {"29b574b1bc6864317887b77e5f4edc439b2303336c13af6355b2f177e47f6adf", "c71a8247b150c4c43b5f6ed500ea3a339152060ad75268380f06438796b62751", "06c10ea2d5c3e96ade0384aeab9cf2907457a695de63b9cd8b92cba373a8ede5", "fd908a468a699417c987ea8a101726dcb91573396b3c72d7e1960ee02b8fd0cf"},
	"filebug":    {"2da3344ebcae8541d015ed2ecc27032b5053f70973ca48e2489b91ca81f732e5", "246bb9eea5f97c4d99e41169a0bc0ede2955198b1ac77b1e43c01361a77f58fd", "3ecf368ceef63a1ded6acf3e01dbc781019495761d9738806623e7019a173462", "3c9c7280b1513844a61dd060950cdc84c6a7807c365f61430dd61f0b3dc31ad8"},
	"toughcast":  {"631c6caec37c08c33b6e2162ce80b4c9844556c33a2d7ef79f4f5f5713200ae3", "351ecbfcb21513ff1d9d93211681a1c8da87f9a4ef0d7789da2f13912a8433e7", "3065cd7afc42c7234578865fd970ad252565743903e005aaa8829f59abfd041d", "1bcaf4f03310b45e8e8ee99345d20929079a5fc15fb17a40b538adea4b09b8a0"},
	"rand0":      {"5355b2d72de7cdd5390c9ae2c0c31d295a43d1650bc4b709ff996e8e212f4ce5", "48845b7df66fac3be44eccddb87d992562fe1a173056427864ec7bf3c8213a0d", "5c4ee58b40fb5e0a7d539eecb7141bab07a9b722f6a8e27d80a72c3655e95b8b", "51e2608b78935d46b525e9c47ed007ef0608064586ed45cddcc1037b6c575e04"},
	"rand1":      {"6052a10464eb8ba3248f7a31f32b84a0a4ced5dc27663382a4db5c0705d5b880", "455c2dfc13bc6375f474e350359148689013bc9ba76f9e504bdf25b747a5bd05", "2517bc4742871aef18635d9dc8b7c8551fb30550c0252c6288cb4b7313f1607f", "303ca736810e6acb9aa45a372900a550710921db49f3bbd6bb22bcbf97a97941"},
	"rand2":      {"4f503b596a53dcee50d50ebcbd4fc98ce20942d3bae8f71f5a30624f2e10596a", "2ad15e5f4f0e4b96b69568728e638b835a8e2a58cbd943d5c0f7af0e45537b11", "cab2aaa87bcce87764f0fd06760a3147e506966633ef52cb61b46761a31198ea", "d19ebb49ec0b0cd5c8e2e9ba858f48cebd79652e887cda5a46fc887ea33d1358"},
	"rand3":      {"cbdbc90e8d19e6e2e44489fc82b7918f7fb0f36fa8e4d9b3835da5b4c3eb39af", "a53bfc09ce103609c1c28798309f55ce5456289bcfc90f8e91995fc0e4aa83cd", "6ad40c59c5dd811204dc91a06bae194338ec70d391879f1bf8def65163164d27", "55370b6d61ee1eab967f47cb0c4ff4905fc7e1144a26530eb3758632a3440302"},
	"rand4":      {"2edd67e9d1fb38ee6650a3cfb76f881b97a5fc4287f2a83360a6b9ace15c6b0c", "2a28872eabe81a232265f770825a8407ff761e24a18fc6a2c7da9011235e2cad", "927505abd055c6154c1c3502272edbd3771c28218b17931a418ccb20aa290142", "856e965c11e7a59d14a316be1cdfd4ee247ec3f63f4ac2aab74cf05f34d93a11"},
	"rand5":      {"57f5a28f5c3d28dc296ac28d16c00fa62b99efb0c8de3eb1b2c95c964dd7f15d", "8438f1daf5e3d6538498ccbad8ecc28ee6dc9fb8d02ffa174d7b1b0263a7c734", "cd763fde32b0b359f1c148c5860147a63549b6f24110fc96faed4a4a72876ca9", "602642a921f3ccdee460454220249fe76b60d19e38e4b1bfbd55b852a7a10cec"},
	"rand6":      {"48b3c716b855f4415cb65bba0d08cec42deb6a23b31b25de39b7683f17bab821", "e4a838cd8a1e10d307ffda83b9983a0b8881f811ef145166767c56c2d22739e2", "d9e8e59a0cb086640c32d3897d2789eddbd0ea9812ea7652a15b3795c499533c", "3ac255704552f4ab124efdf57ce5939df5ceef9e8a9fd578e34e65468633093d"},
	"rand7":      {"1c3e9d4e6a4a881b47fbdd02c9d78d05feb2f9384c4071bd9c48d4a50f89db00", "19057989f68ed7814cb037c082a6b548b96389eceb18a14b63fb0519cc4052db", "c686c4af8b0ca839b8842f6fac53e29c84790ef05465a1ac73493dd5a0f07266", "c946314770650b99e12411649deee1a1e235bd3496d57201607fbb4282e96a9a"},
	"rand8":      {"979a59109d36d8920990ed7dbdef5032db9a56fbb863768d4df6b07cde2fd872", "895e8a42337cdff6c7e5cc2e9992f3b081589cb619dfd2cc15e9a450c52756e3", "e8fd60178c2248861af2679b7f9a19055cda3a1c2b70241fd81b9451c1326cdd", "a11c3f41e9f45b3e6a3b310d67ec36bbac3abb176ca817de79f371b2bcb14ed9"},
	"rand9":      {"7f1ad7536ea9eff3e032b9fe99dc11f7f8114b01298e1867bf5ab52adde4076a", "0c8766d904ba251d54b063c905f3b4019974c1c87805009fb55e04ab00ef579b", "fc27c8edb538c6dcdf3b1042db90b175152e2ca0538633da72564011c5103ebf", "2bf15bc4c5950d1ead2b73be94d6546867fddc9d442791f2149332abedc3f55a"},
	"rand10":     {"0f201e69028f027a9dfaa9376e650b3adf8c69dc56728fe3ed7a2c98b377d73d", "f2c23b4b092ca09106af9e42f8c2915eb55d7cea32735f96f04865accaa5b618", "c8540e42bb287aed96449eb958f61d030bedb7a463d2b1cd3b5c95732302aedf", "7f0331c2d03bca6eabd24459173513a7a3181e6b37ee651ec18372069f93ba59"},
	"rand11":     {"740e1933c1c89051e173026b380fb5ce9e46894800ccfd79461539ac59e60bb6", "60b41c6769cb7dd6181407aea41c946779778c9931847f843ceeac0093a5f18b", "10b9dcf0ff15d74254f5426b40c09f39dd805f47b247f754491acf1f1744ad6c", "9a075883fc633e631f4ed112992de94d7e379f1eabc7be2330f9a387ab2b55c0"},
	"rand12":     {"17aaf87c109b21914be5cd8ee4e3b8e5230aba832b4abeb3c39559d09d9681c4", "e7d761fa801146f641e76c84743d19ef6278205ba378a4ced0eb927e5e7d5850", "1461826fd50ceed2588dfa6a212c2f581734c259edeb4eb516025f148a39afe6", "b53dc4e5ed1e11365d653a51c21b497614ae9b2377eba44d91d1ba6073c3ea89"},
	"rand13":     {"b24a066bd1705f122228d4c7d74749640fefc7c018bc4efee5879137bbe4a93d", "3df88f9ed44ce2da093d04956782023ebf8d435117831857ee4da433863ed93c", "0c23331623d3f45761c642b00a2df137575c373445e9e8ad0288f39f079f2356", "b07cd49666ab93a198aa342c4f1eea639600c8194b6d33d74ad533d8daf6f182"},
	"rand14":     {"ceedde6356b97105354c489a258dbc995f9f28b97a3de54e8e6238956c4cc53d", "308a6f10c234939430dee34739556a02258f3f9f86afed0f74ae8fcdf1866348", "264f7a1d99277c0d50255b76dc587c57688b82b2464d8c4202cc429b38b28a53", "595a78d3deddc7ebd2bf21a7b2a547a93e2c299bccd763578fd71eb9425bc378"},
	"rand15":     {"24026af6191a48c0abbfa521274b21c348074f35740499ed281f3d7fc813d650", "434a5afd978be6c391d288c90583e8aeed711d544e8f4f02e6b36b54c9cc9b1b", "0a60ca7a9d3969a627aabbcd44411a22e0cb5425d8c4ceec2b055e6552eeea10", "24f53d37c7e943ccb3d1e48ae6c5ebfb0073d313c63211f0b6bdf41d8666e5c5"},
	"rand16":     {"5b8b6f9886a3daa5fb4d071e9a24941dd95198c08be7b6bf5d78da8e2c6d0705", "6fce144e84e0122156eba565dc2036ae2b55ffeb91610628c145642dff6670b3", "558f155d424f1ffd01d459cebfb81556472f56982c2179a5027ae2d031fc1919", "88486d25102008c67a1185b1cd542d2b5430b435c9176a50811f5e6d12e17920"},
	"rand17":     {"0dce4df66a7f2fffe189f72c9ff770bf2f28b97be81c7074991b831858538f06", "6e1e762f76805481018e28c375cba5073682e15e59b1d9a45ca7a7defbc6bcb7", "f2879ad5a06759a76b763be735259030f4a6c8ddca0cb347eccfa827c82c6c9e", "c7518e7639ee26ae5d2fa12fd9a69bb3fddb9a0698f065da6578c5b5a5176ff0"},
	"rand18":     {"b72fe38ee27d015a6bab369f652fb617202e5935c31ab789e4f0e67137edb8ae", "19711a0df8d7ad3bf4fe9270acc7c2e87d435ee56e5a620feab0522f31cb5a94", "83ac6435aad9280fa10f4ecbe96a4431992353bbdb9c24e1943bca6778c5627a", "cb0aa2f5b9d35081c04964855b015af1776168746d3c9f850c6e4f655977c566"},
	"rand19":     {"b0f35e3ce988474dacf9eb740c52c239d7224c37f589c6daca42b224b0c4f213", "d4cefc667112c3bfbb451604f6dc444d748ca88ed4c81d05438bb241c17b81c2", "1f831544cf80748614085e89921eb8e3d92b64d956d50a32911a4388a30f0981", "9476cd32e4af4650f0bf42f7222e6e8f5bf862d97b9fa82e127e8f286f050045"},
	"rand20":     {"92582dd54a4238dc0a709065370295bd9d6a2dc100f2dee4d22db2b6a00c881e", "b749c3c2245f8cf97954becd3ead7eb326fee7fdf3332ef95c745704114ec117", "8e01eaaa5696bf3ff7132a3140bd31e938745360e2b87ed0382556c150e02e37", "f35bbbda67f3b7a8745838131532ddce860fe626a9c527724f7ebedcab41b8b9"},
	"rand21":     {"5ab6e98fc5e56dcbf8e8fa7aacb75a6195c0fb7f3c644af9e4e0c6269a266e2c", "0e4ba2b05da5a629d5598a8a062ef8a55841fd31a3180ed930670e66e449af31", "72c2313fe8e5d122b979e13f3ed266e80c8c10e688f17ca62f24d82790066e5a", "8890f866743cb2de63bcdb1da4bbfb8b67aab27b32be827262088037c6dd89f9"},
	"rand22":     {"6d5729c600e0e72522cc8c7fc3800a0d1f66085d37fc3dcd23f928d17d2f0498", "15be80964465c89ccba34f7755306fadd770095ba5df57048a0c24a782b6be08", "b34ebb10a2e0dd29c2c0bea79934f7cc62b8ad713557114a1d99258af5529bbd", "dc4264c26210c39f3724e27b2333f6814a0937408ad3a09602f82fbf4b8e71c1"},
	"rand23":     {"48d1b4aab6c332be61bf8dd5415cccb5db426c43c4a6fbcb0da4b4f05e81636f", "0c04f0cd18bb166a2648625733e7323fd9cb4314eafc296b65e907d234f6352e", "5448f24efbd6526157aa0777a2f65111dce41c4dc21f1b7dad2f0e89d3c1d231", "db5173144a2c21d3044ab1837693338bddb301a9ccdd0c45776312ee357b90a0"},
	"rand24":     {"424c5e93d33d5c93633df71188fc912002b9dce48b1ff046d8d9db94fb858670", "60e9f7a15e656567cf3738e10378016815ce194ae46a6ba77787466eee0484d8", "9dc1b881b7268f77b0147d3f72768591680bb2097071c857b56181e2fa1e52dc", "442fae313454874994628413c1f5503e55fafd2548d3bc31badf0630271a2432"},
	"rand25":     {"1a79b934b3ee77b1d100c21bf6663f03de36af4b63d75889627613f35ee47b97", "64f830cb3ef982d5f6f89fe2ebe29fc93f38ad2d8e81caac5257e60e17df76aa", "2ecc737dcb6e7d8eafb405870f9a5c7d3d3047cfaafe7b6b33ee510bdc920bc6", "1366624d81320d5c0e99e9af1b82ba1d743380bef04a784b114b17a598d55c6f"},
	"rand26":     {"96f9b39f1c3c18ccbba1ba61f0ccfe4d1cfac5eb82dd273f76d9882896313c48", "2a3fa1f42ae5dc83ec9745a7b48c1a96f1ccf7ac9019a1c18bff591a4d1ffcb4", "c2525a2d0b608c75180bc9f0b9356566097a37488e24265550eb3e24eb76a402", "2e9475f933e7d159f4a404425097ac19298594f4a6f5d6c6a4e60ca275923a92"},
	"rand27":     {"5652253360e37afbf6197f0f4f9fcc85d3d239e34ebc765a30a60c34fca586e2", "6f0682d1d3dfaa2dc9747ed4e1934362e13ec81093411795ed692b0bbed7a1ce", "3390a35bc2b779e9fad3f3bed1b43344d67bb121cf336d8ff063a52246c286b9", "21065a81ae234fcf0d811b0215e8c1268fb6911005cbb51d125ee851428336e9"},
	"rand28":     {"90c261a2ee64feae470f20e466894712b2c15948e9eb549bf892699448c4b0af", "da07a352431764f6d0f8fab399167257dd9b4417da2935afea32f6864dd65cb6", "6a541f7376339e1e6b5c1a8d8df498398e3999374e17adee0ed3edcc90c6e217", "5ca5cafcd761947d9fc108fa9a2c967677ca78f7ba4255e578f3ab01e49b2b10"},
	"rand29":     {"c0925af3ba3052642c1ec133c02adbe0a2211d64f5d817561995b253cf1d31d9", "d6acf90bac9620d999af0e4387e39953a819a512da8592026c9cbc06937e6a72", "a8c20e2629d3dd12a4922e940199703bdafe9dc75cf11a283352d2539a5b4185", "0f8bf8732487a935f5eb98424035c25c80f067871e863eb55cdb623e19008ea3"},
	"rand30":     {"31a1c3aad066e48f7fb06b4b44b54096f72bc1799dd5e3f3a359e0b94d2cbb55", "dcca9057da8d4fac064d954606e08cb049b17d69b10a72e0d4a332e03d4472d1", "45f119db26e4804d3dc494eb0fcaea44301c2cdd5f4f1ee9d2276f8b092d0e27", "b8af30efaf89c35bcfa96329b6f1e06a580c3e982a94a6692144fc8ff5b43248"},
	"rand31":     {"e9b9e0e57945d1dfe33e6bd0120101236b3ba05112cbe89be0e5a47b47a3584c", "d91e68ad3e2f81feada578a0e03669cc4feb11a66448f117354ada7fa8134f69", "7245834289b1b48a088c9e0433cbad547376e2ab0b6c556c634276c0d668a1c8", "c5a836f3d80ed6ea5509bd3a87981ae3219d5a0f5d011aa21788b054d24e6209"},
	"rand32":     {"67e070a53f59c084139b1e903f9cfd94c12c29159ed1a98347b332dcb7203021", "3ccbbaafb66faa9df959e7d68915285f7de3ec6a4ded8f13c2b2c73ea4d3438c", "500cb400ca5ecf0b3abf12bfc8a18f2581a0e57cb9ce6975e53082b7c7419f6f", "a1d477bd5def53c95c9f45d767de985c70156826e0d28878e48c2c3484dd46d2"},
	"rand33":     {"ad56d3c89532f39ef6efdba092c21dd3a33e0847deee1ad29f6847c68c2f154c", "5a42b4ce369ec6453597490005f8bc25f7093ae1db950c9961243a56c1bf7492", "372ee03c9aec04b110fdf7de498122a6537425b05bd9e4b70ed14f2c6e7e72c5", "76fc0d4a2c534f9d7db580b19edd5c75e831f59841e2011ca34fca51d7fee67f"},
	"rand34":     {"dd8c363e12ae0f3d4ad99b25de263bb457b1a1ae56d1512fd150cb45c8468176", "9a7c0caead8dc7117d7ff07edce21c64cecf5405099989bd86fde36e41cd6d3c", "7522365b3d4b71e82d965bb82c42013fd4d474c63bcf36c6353e1705abf7e559", "0b3a2023fd155e7ea7328b4374282686a1048d26ead4415a25ee389a0ab9fbb7"},
	"rand35":     {"ea32da0560e40d88c18825c39e0be32160de51a4e73ad6f2d062bbef30a98d71", "d5d4f63a144ddbffd74af22df41a07d66d37cd557ce3acfb9fd66fcc198cdebd", "370963204f90b2d00c4674fd9b8d86a0f6aa2841de3941fa7a8737f7912dd14b", "e349260726aa21ae8288280fa407706d1b611b0604ff0111dc915b0c72df9569"},
	"rand36":     {"14199b54fdeef26f9bb539330d92fe53d402f0577ae0d0632862a69750b62427", "2bc80f6949f10ecc3aec0e0305e6edb43bf31490916623d95ee09958864ff19f", "491cbf33ac86812ac24193010611424a7364a2398c659b5dfe87676425119715", "dd02ab7b0c7102c05dc69d87c45854cce655e7b6b4440ab1edb9f929b7ad6680"},
	"rand37":     {"c537dae01ee841b65b5cfa939fb7dfe8d833f3968edd4346ac45397996634a83", "3b152f0ad3ac5d23a63ef6483fa900891bd4a2702005674f7b0a45f39bdcb89e", "f51861ecb6e52515e4bef9ce89156f6bd528f85660f5780abbadaba1d429ab2d", "80186d8a2dececa66a4ed9cccf549f421d7beca3cd726b28247a6ad7cbe44c1d"},
	"rand38":     {"791832bb787952a41caa44ac2c27dd591b370ea71603b25ed841aea1656fd05b", "63e40fbd220f4dbc1306cd56d9a5f7700c4735fe5a1cb016262051736c7ba62b", "66d933e90b5e1206f68c74b2ca4c0965f0c7e386628d5c3f1feabc677fe4c52b", "4c87f86146c0ed3ceefef07ac65acb6e98a4c32658beb0117b35d217e00cb9a6"},
	"rand39":     {"75ce69f6e9852b38565efe7e1640832baf62392cab5adfd40774e4da007c6b46", "84b9d4d991098012658443ba47043bb226e64a5699a706756cb6a1ef28d3fc7a", "d13969c10dea0f3fad614b524a143cd0ae5ab1ffc9d58856148c45930fcad2e3", "ea0761019c9f1f81d442cf185319e6387fcc45038adf945bb87e67bfcc2f059e"},
}

// TestBuildByteIdentityOracle lowers and builds the dependence graph of
// every oracle program in a plain and in an incremental session and
// compares the digests with the recorded ones.
func TestBuildByteIdentityOracle(t *testing.T) {
	for _, op := range buildOracleSources() {
		t.Run(op.name, func(t *testing.T) {
			for mode, opts := range map[string][]session.Option{"plain": nil, "incremental": {session.WithIncremental()}} {
				s := session.Open(op.srcs(), opts...)
				prog, err := s.Prog()
				if err != nil {
					t.Fatalf("%s: Prog: %v", mode, err)
				}
				g, err := s.Graph()
				if err != nil {
					t.Fatalf("%s: Graph: %v", mode, err)
				}
				enc, err := sdg.EncodeGraph(g)
				if err != nil {
					t.Fatalf("%s: EncodeGraph: %v", mode, err)
				}
				pts, err := s.PointsTo()
				if err != nil {
					t.Fatalf("%s: PointsTo: %v", mode, err)
				}
				penc, err := pointsto.EncodeResult(pts)
				if err != nil {
					t.Fatalf("%s: EncodeResult: %v", mode, err)
				}
				got := buildDigest{sha([]byte(ir.Sprint(prog))), sha(enc), sha([]byte(g.Fingerprint())), sha(penc)}
				if want, ok := buildOracleDigests[op.name]; !ok || got != want {
					t.Errorf("%s: got %s, want %+v", mode,
						fmt.Sprintf("%q: {%q, %q, %q, %q},", op.name, got.ir, got.sdg, got.fp, got.pts), want)
				}
			}
		})
	}
}
