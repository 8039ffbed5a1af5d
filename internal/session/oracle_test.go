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
// version 3 (delta-coded rows) and again at version 4 (factored rows:
// shared heap lists and entry flags); the ir, fp and pts columns did
// not move either time.
var buildOracleDigests = map[string]buildDigest{
	"nanoxml@1":  {"99263bd5c4b37a23f2ea947db16e48f8f5491a1af1a60d71bc273754a7c61e0b", "404216c53f94df78019d4617c0bc2d00045a1eee0848a04bc5dff5f9c9cb73bf", "25fcbce7b9347551136775df353bed53305d20a983d69948caddfa69a6c2d843", "d2b30f14aaa163630619520c388f414d51ed023a46982b04c0cc900c435b7954"},
	"nanoxml@10": {"0914979af9ba6c05a9a10e1bd0647373adcf7d533f29d6eaaf5aa5b77186e4d8", "0364359c174470157a8edfc6d8b6f9b0bccd3d3b5758bae3ff3a5a533ed752b0", "7ab646ecad87f144b1b86b62d89acb1b4347890a41224a454d69be9d4fdecf2d", "b5b50cf7ee30f5826a52778e3667ac644f92ebec9a589e94e6b5edbe10b8ff9f"},
	"nanoxml@15": {"b51ada68a1dd8ed74400be558b96735e41ff558ebbe2c80f4a4c94d1ceae747e", "5c7861fac89106918a6991119d9425851e00612123e39ba6b077f432ab866659", "f335e9b0e5f1cbacb3a3d6eb03122d3d94b462d9a7c5f1df5ed1eeb730f9bdcb", "2755d56fd31a6c326dfc7b405dc2651abf24608e4f683d3ba6c8cc2a8c766a36"},
	"javac@5":    {"ba1225312483f4371dfea17d3def9f64c64da7c2c609dc2569f751dd9041e748", "e301b2df2acd8d5ec3103f39e4df453b75a16c951b981025948f17d09a038041", "a3365896291bb3b9fa6992e1fa001511ee10d3deb233020bc1f9d9f43a8ad62c", "8b60e4ebf24c9a95279ac4d0792e2a380d15587373108526353c09e96eccb08f"},
	"jack@5":     {"52ac6a0dd284e8e8bfa07b8b9cbe45b934741e934bacef661c34ccafd35b7c80", "041fddd2b0b731f5653520290df8a0d3984303f734e6c34aa0ffe442e37eb265", "934e8e27b84ced942e99184112889a50b369a30cba7cb2c9c7049e2bb8474c3d", "9bdfc63458ceb593dc78dc71671035a1ec07553818ce6cf6ae1069b12bfdf7f7"},
	"mtrt@5":     {"5747e1004eaf27acd0ca7de86ca483410deb932544bc5a0433abcfd8fc91679f", "db72b77aca34f25a2211092011678a490fb71e18d3379e9ff08476e7b3744080", "6aee44c80d0de148099347ac59a6b5f9522fdfee70904e262f4d3d20e4e004ac", "07348e5db9a101501a9e92e15ce7f0e4aa1993e513e68386dafa2408d75e5baf"},
	"firstnames": {"a56653796449c4a0056e5eecaa2cd1db009ce0bf825e53e672cbedf433f479b9", "cda8ed28ee702b038a5323a568cfeb91fc2dd37fa699a73338f70563728c81f1", "32bbe8573be3b72fa95563e6825dde880d751696fc73b109a19d586d7d426d06", "8a0e63c0f9dfeac9cf00cb08cb6d18cb1b974afb718414356a9b22775dcaa7b2"},
	"toy":        {"29b574b1bc6864317887b77e5f4edc439b2303336c13af6355b2f177e47f6adf", "3c7f347226d5ca97ee612bffd7362992741a482771d06549c2c9845fdc589bf7", "06c10ea2d5c3e96ade0384aeab9cf2907457a695de63b9cd8b92cba373a8ede5", "fd908a468a699417c987ea8a101726dcb91573396b3c72d7e1960ee02b8fd0cf"},
	"filebug":    {"2da3344ebcae8541d015ed2ecc27032b5053f70973ca48e2489b91ca81f732e5", "fb7847d649d97941915d7ef4852c785e63da1365b795f926b771de3a3bd29e5d", "3ecf368ceef63a1ded6acf3e01dbc781019495761d9738806623e7019a173462", "3c9c7280b1513844a61dd060950cdc84c6a7807c365f61430dd61f0b3dc31ad8"},
	"toughcast":  {"631c6caec37c08c33b6e2162ce80b4c9844556c33a2d7ef79f4f5f5713200ae3", "3cf8b6f9f76f6e4836373d355cd1df8d8276c16e698db02461c2ac451d112ba6", "3065cd7afc42c7234578865fd970ad252565743903e005aaa8829f59abfd041d", "1bcaf4f03310b45e8e8ee99345d20929079a5fc15fb17a40b538adea4b09b8a0"},
	"rand0":      {"5355b2d72de7cdd5390c9ae2c0c31d295a43d1650bc4b709ff996e8e212f4ce5", "a3a2dc898d8e91d6c85a78682b503889218f2e8d05b1dc9a6d0e1e45452e8aa0", "5c4ee58b40fb5e0a7d539eecb7141bab07a9b722f6a8e27d80a72c3655e95b8b", "51e2608b78935d46b525e9c47ed007ef0608064586ed45cddcc1037b6c575e04"},
	"rand1":      {"6052a10464eb8ba3248f7a31f32b84a0a4ced5dc27663382a4db5c0705d5b880", "6e068d8811f27da7e1efe8019c7b5e65c8109384ff0a85a15837121dd642844d", "2517bc4742871aef18635d9dc8b7c8551fb30550c0252c6288cb4b7313f1607f", "303ca736810e6acb9aa45a372900a550710921db49f3bbd6bb22bcbf97a97941"},
	"rand2":      {"4f503b596a53dcee50d50ebcbd4fc98ce20942d3bae8f71f5a30624f2e10596a", "da3b57a62d86f005771c26216b3106cf4a0410d4447502f0437892af8bb0b9b5", "cab2aaa87bcce87764f0fd06760a3147e506966633ef52cb61b46761a31198ea", "d19ebb49ec0b0cd5c8e2e9ba858f48cebd79652e887cda5a46fc887ea33d1358"},
	"rand3":      {"cbdbc90e8d19e6e2e44489fc82b7918f7fb0f36fa8e4d9b3835da5b4c3eb39af", "c1fa11ee4118ead02bbc662d38c4458298bf08be86b840491b5e146089d0db25", "6ad40c59c5dd811204dc91a06bae194338ec70d391879f1bf8def65163164d27", "55370b6d61ee1eab967f47cb0c4ff4905fc7e1144a26530eb3758632a3440302"},
	"rand4":      {"2edd67e9d1fb38ee6650a3cfb76f881b97a5fc4287f2a83360a6b9ace15c6b0c", "aeaad5ae0032a58ac784453a0b1b443ae2889ce89e898b87f5fb3c5d3c201322", "927505abd055c6154c1c3502272edbd3771c28218b17931a418ccb20aa290142", "856e965c11e7a59d14a316be1cdfd4ee247ec3f63f4ac2aab74cf05f34d93a11"},
	"rand5":      {"57f5a28f5c3d28dc296ac28d16c00fa62b99efb0c8de3eb1b2c95c964dd7f15d", "3949b58608cc0c66981ae78495404e030f6519245372c985a053c607e2317d47", "cd763fde32b0b359f1c148c5860147a63549b6f24110fc96faed4a4a72876ca9", "602642a921f3ccdee460454220249fe76b60d19e38e4b1bfbd55b852a7a10cec"},
	"rand6":      {"48b3c716b855f4415cb65bba0d08cec42deb6a23b31b25de39b7683f17bab821", "9df724e16613223d351fedfee697405a1d2be7ccf799243af01b8a091157e235", "d9e8e59a0cb086640c32d3897d2789eddbd0ea9812ea7652a15b3795c499533c", "3ac255704552f4ab124efdf57ce5939df5ceef9e8a9fd578e34e65468633093d"},
	"rand7":      {"1c3e9d4e6a4a881b47fbdd02c9d78d05feb2f9384c4071bd9c48d4a50f89db00", "ad4f5f5184fe99b74fd77d07fe19031ff43944d9d7fbacaa693c53986ea3e467", "c686c4af8b0ca839b8842f6fac53e29c84790ef05465a1ac73493dd5a0f07266", "c946314770650b99e12411649deee1a1e235bd3496d57201607fbb4282e96a9a"},
	"rand8":      {"979a59109d36d8920990ed7dbdef5032db9a56fbb863768d4df6b07cde2fd872", "4d908fa0d592767d909cfa57d0362a4b54c124321107478a8260a3ab4b3ffdd6", "e8fd60178c2248861af2679b7f9a19055cda3a1c2b70241fd81b9451c1326cdd", "a11c3f41e9f45b3e6a3b310d67ec36bbac3abb176ca817de79f371b2bcb14ed9"},
	"rand9":      {"7f1ad7536ea9eff3e032b9fe99dc11f7f8114b01298e1867bf5ab52adde4076a", "2fe0c9afb081381743958bcd896ec6bc1982331b4dd878623121c1b404913953", "fc27c8edb538c6dcdf3b1042db90b175152e2ca0538633da72564011c5103ebf", "2bf15bc4c5950d1ead2b73be94d6546867fddc9d442791f2149332abedc3f55a"},
	"rand10":     {"0f201e69028f027a9dfaa9376e650b3adf8c69dc56728fe3ed7a2c98b377d73d", "ea382989bb7a0fb09299abc7770aed84756b8768de4cc31559aad5f00a898e7c", "c8540e42bb287aed96449eb958f61d030bedb7a463d2b1cd3b5c95732302aedf", "7f0331c2d03bca6eabd24459173513a7a3181e6b37ee651ec18372069f93ba59"},
	"rand11":     {"740e1933c1c89051e173026b380fb5ce9e46894800ccfd79461539ac59e60bb6", "cae34f4be4ff2279d818fec0283cd780bce10b87e793218590f4e7d2deca1deb", "10b9dcf0ff15d74254f5426b40c09f39dd805f47b247f754491acf1f1744ad6c", "9a075883fc633e631f4ed112992de94d7e379f1eabc7be2330f9a387ab2b55c0"},
	"rand12":     {"17aaf87c109b21914be5cd8ee4e3b8e5230aba832b4abeb3c39559d09d9681c4", "d2f71df043bbeb8f7762f60c22b5fc8304e04652c44700e22ba814607e4144c2", "1461826fd50ceed2588dfa6a212c2f581734c259edeb4eb516025f148a39afe6", "b53dc4e5ed1e11365d653a51c21b497614ae9b2377eba44d91d1ba6073c3ea89"},
	"rand13":     {"b24a066bd1705f122228d4c7d74749640fefc7c018bc4efee5879137bbe4a93d", "78ec3a5d71300fa52a860266ce57bb2de24c61d8f5c4945d39216d3a7b1b8831", "0c23331623d3f45761c642b00a2df137575c373445e9e8ad0288f39f079f2356", "b07cd49666ab93a198aa342c4f1eea639600c8194b6d33d74ad533d8daf6f182"},
	"rand14":     {"ceedde6356b97105354c489a258dbc995f9f28b97a3de54e8e6238956c4cc53d", "8aabd53dbe62cfa60da0d06a7fafa3b4817d1368a7bf9bf7c647af89ece0ef52", "264f7a1d99277c0d50255b76dc587c57688b82b2464d8c4202cc429b38b28a53", "595a78d3deddc7ebd2bf21a7b2a547a93e2c299bccd763578fd71eb9425bc378"},
	"rand15":     {"24026af6191a48c0abbfa521274b21c348074f35740499ed281f3d7fc813d650", "f5be904251bf6a4dad93103625a1bac4bd185c11622eed05ff6638131b808cb2", "0a60ca7a9d3969a627aabbcd44411a22e0cb5425d8c4ceec2b055e6552eeea10", "24f53d37c7e943ccb3d1e48ae6c5ebfb0073d313c63211f0b6bdf41d8666e5c5"},
	"rand16":     {"5b8b6f9886a3daa5fb4d071e9a24941dd95198c08be7b6bf5d78da8e2c6d0705", "60a0b2a8a1cef3fb5a968ba9e240da5215ea366dd0ffb60a2df62633c930200a", "558f155d424f1ffd01d459cebfb81556472f56982c2179a5027ae2d031fc1919", "88486d25102008c67a1185b1cd542d2b5430b435c9176a50811f5e6d12e17920"},
	"rand17":     {"0dce4df66a7f2fffe189f72c9ff770bf2f28b97be81c7074991b831858538f06", "32415a9e846f26f93d6c2aeea0db9ffa077b7c6d3a3bafb8cebb31aa274998ba", "f2879ad5a06759a76b763be735259030f4a6c8ddca0cb347eccfa827c82c6c9e", "c7518e7639ee26ae5d2fa12fd9a69bb3fddb9a0698f065da6578c5b5a5176ff0"},
	"rand18":     {"b72fe38ee27d015a6bab369f652fb617202e5935c31ab789e4f0e67137edb8ae", "33bac5a0aff7246569ad2774fd1293e77cb12eb9449dc60e29ce535145b6abca", "83ac6435aad9280fa10f4ecbe96a4431992353bbdb9c24e1943bca6778c5627a", "cb0aa2f5b9d35081c04964855b015af1776168746d3c9f850c6e4f655977c566"},
	"rand19":     {"b0f35e3ce988474dacf9eb740c52c239d7224c37f589c6daca42b224b0c4f213", "24bb7fa58aa1eafcf411bf86a605e3527c1bd9fcf31d8cfea8a41edbfef6275c", "1f831544cf80748614085e89921eb8e3d92b64d956d50a32911a4388a30f0981", "9476cd32e4af4650f0bf42f7222e6e8f5bf862d97b9fa82e127e8f286f050045"},
	"rand20":     {"92582dd54a4238dc0a709065370295bd9d6a2dc100f2dee4d22db2b6a00c881e", "55a2292d9a5a9d6d80da108c26ac41bca8a4274c4573e1ffb81d878eb143b9a3", "8e01eaaa5696bf3ff7132a3140bd31e938745360e2b87ed0382556c150e02e37", "f35bbbda67f3b7a8745838131532ddce860fe626a9c527724f7ebedcab41b8b9"},
	"rand21":     {"5ab6e98fc5e56dcbf8e8fa7aacb75a6195c0fb7f3c644af9e4e0c6269a266e2c", "15d5839ca4c508e28cf53a2725b94a195db099699eb38e57d70db0bb9178daba", "72c2313fe8e5d122b979e13f3ed266e80c8c10e688f17ca62f24d82790066e5a", "8890f866743cb2de63bcdb1da4bbfb8b67aab27b32be827262088037c6dd89f9"},
	"rand22":     {"6d5729c600e0e72522cc8c7fc3800a0d1f66085d37fc3dcd23f928d17d2f0498", "2963076774f0d47afa880c9bdf7405047903f2561f63c1324e4369e3e3285abd", "b34ebb10a2e0dd29c2c0bea79934f7cc62b8ad713557114a1d99258af5529bbd", "dc4264c26210c39f3724e27b2333f6814a0937408ad3a09602f82fbf4b8e71c1"},
	"rand23":     {"48d1b4aab6c332be61bf8dd5415cccb5db426c43c4a6fbcb0da4b4f05e81636f", "af1318489dafce36fd2c58b16fa761a812a45b89e38d296daee4c3313d951ae3", "5448f24efbd6526157aa0777a2f65111dce41c4dc21f1b7dad2f0e89d3c1d231", "db5173144a2c21d3044ab1837693338bddb301a9ccdd0c45776312ee357b90a0"},
	"rand24":     {"424c5e93d33d5c93633df71188fc912002b9dce48b1ff046d8d9db94fb858670", "a273213931b44687b975a1e7326cc0ae67ad0a5b40399bd5e3575dfa05975b9b", "9dc1b881b7268f77b0147d3f72768591680bb2097071c857b56181e2fa1e52dc", "442fae313454874994628413c1f5503e55fafd2548d3bc31badf0630271a2432"},
	"rand25":     {"1a79b934b3ee77b1d100c21bf6663f03de36af4b63d75889627613f35ee47b97", "7a696bbf7adbc48775fb0473a4023ca7a5e47e6c26f35fd75b81ca9021e877f4", "2ecc737dcb6e7d8eafb405870f9a5c7d3d3047cfaafe7b6b33ee510bdc920bc6", "1366624d81320d5c0e99e9af1b82ba1d743380bef04a784b114b17a598d55c6f"},
	"rand26":     {"96f9b39f1c3c18ccbba1ba61f0ccfe4d1cfac5eb82dd273f76d9882896313c48", "061fee269b722d2f8d878ee276ca73364f303289bde7c1ec66a9fe21dfefc182", "c2525a2d0b608c75180bc9f0b9356566097a37488e24265550eb3e24eb76a402", "2e9475f933e7d159f4a404425097ac19298594f4a6f5d6c6a4e60ca275923a92"},
	"rand27":     {"5652253360e37afbf6197f0f4f9fcc85d3d239e34ebc765a30a60c34fca586e2", "c53e79b15d881b569def0e13b31a4604eb963a1b513e6be450295013ba6df67f", "3390a35bc2b779e9fad3f3bed1b43344d67bb121cf336d8ff063a52246c286b9", "21065a81ae234fcf0d811b0215e8c1268fb6911005cbb51d125ee851428336e9"},
	"rand28":     {"90c261a2ee64feae470f20e466894712b2c15948e9eb549bf892699448c4b0af", "de037a5ac65ddcc9c508cc656826dc576d391fd83af343a10045399d1a723c57", "6a541f7376339e1e6b5c1a8d8df498398e3999374e17adee0ed3edcc90c6e217", "5ca5cafcd761947d9fc108fa9a2c967677ca78f7ba4255e578f3ab01e49b2b10"},
	"rand29":     {"c0925af3ba3052642c1ec133c02adbe0a2211d64f5d817561995b253cf1d31d9", "c470c5815dda05055d7aa8819f119f3b05c74827e9cd4e0aba73d38255be550c", "a8c20e2629d3dd12a4922e940199703bdafe9dc75cf11a283352d2539a5b4185", "0f8bf8732487a935f5eb98424035c25c80f067871e863eb55cdb623e19008ea3"},
	"rand30":     {"31a1c3aad066e48f7fb06b4b44b54096f72bc1799dd5e3f3a359e0b94d2cbb55", "d85d10a7cbfcc2d82e900d71e4c4f8276c441ac16b28353018d863261e5e19df", "45f119db26e4804d3dc494eb0fcaea44301c2cdd5f4f1ee9d2276f8b092d0e27", "b8af30efaf89c35bcfa96329b6f1e06a580c3e982a94a6692144fc8ff5b43248"},
	"rand31":     {"e9b9e0e57945d1dfe33e6bd0120101236b3ba05112cbe89be0e5a47b47a3584c", "1e2b4bf0a6e48b3b1d815a9b7cc032e1ff595bf6d37331886f2820a430091e22", "7245834289b1b48a088c9e0433cbad547376e2ab0b6c556c634276c0d668a1c8", "c5a836f3d80ed6ea5509bd3a87981ae3219d5a0f5d011aa21788b054d24e6209"},
	"rand32":     {"67e070a53f59c084139b1e903f9cfd94c12c29159ed1a98347b332dcb7203021", "deaac760cbc5e036806f5690d9e8fe526f2eb4b8fd95c61d074afe55e36978a6", "500cb400ca5ecf0b3abf12bfc8a18f2581a0e57cb9ce6975e53082b7c7419f6f", "a1d477bd5def53c95c9f45d767de985c70156826e0d28878e48c2c3484dd46d2"},
	"rand33":     {"ad56d3c89532f39ef6efdba092c21dd3a33e0847deee1ad29f6847c68c2f154c", "585991f2e6ac4d082b570a23b74963b48782f02c8a03d0d6b6c5218b2f76020d", "372ee03c9aec04b110fdf7de498122a6537425b05bd9e4b70ed14f2c6e7e72c5", "76fc0d4a2c534f9d7db580b19edd5c75e831f59841e2011ca34fca51d7fee67f"},
	"rand34":     {"dd8c363e12ae0f3d4ad99b25de263bb457b1a1ae56d1512fd150cb45c8468176", "8d2bb7eb84c73f9bf373bef4f72cd7775ec4387c21db6060b3ee9e7897df944b", "7522365b3d4b71e82d965bb82c42013fd4d474c63bcf36c6353e1705abf7e559", "0b3a2023fd155e7ea7328b4374282686a1048d26ead4415a25ee389a0ab9fbb7"},
	"rand35":     {"ea32da0560e40d88c18825c39e0be32160de51a4e73ad6f2d062bbef30a98d71", "0279ab19c53b5fa25cceffac70be30a955575d0a33b6bf555b0309714c83ecd8", "370963204f90b2d00c4674fd9b8d86a0f6aa2841de3941fa7a8737f7912dd14b", "e349260726aa21ae8288280fa407706d1b611b0604ff0111dc915b0c72df9569"},
	"rand36":     {"14199b54fdeef26f9bb539330d92fe53d402f0577ae0d0632862a69750b62427", "e00a2c8218fb63d03a1a47c32d5e2d5c8ec6642e59769277ad18d2b0eba1b266", "491cbf33ac86812ac24193010611424a7364a2398c659b5dfe87676425119715", "dd02ab7b0c7102c05dc69d87c45854cce655e7b6b4440ab1edb9f929b7ad6680"},
	"rand37":     {"c537dae01ee841b65b5cfa939fb7dfe8d833f3968edd4346ac45397996634a83", "3ff0195f25a8ef4f2949307a47c61fbdee7e0e5badd4caedfcf0b549d44b75bd", "f51861ecb6e52515e4bef9ce89156f6bd528f85660f5780abbadaba1d429ab2d", "80186d8a2dececa66a4ed9cccf549f421d7beca3cd726b28247a6ad7cbe44c1d"},
	"rand38":     {"791832bb787952a41caa44ac2c27dd591b370ea71603b25ed841aea1656fd05b", "4dd2fbb9ec96b4f6f83f66a561dd9cc9b73b9045f16958ae242b9493694a3e9b", "66d933e90b5e1206f68c74b2ca4c0965f0c7e386628d5c3f1feabc677fe4c52b", "4c87f86146c0ed3ceefef07ac65acb6e98a4c32658beb0117b35d217e00cb9a6"},
	"rand39":     {"75ce69f6e9852b38565efe7e1640832baf62392cab5adfd40774e4da007c6b46", "b771d6a902c4ddc757fdda22a94147099c9d11f0e1f6c1df9d27b7f9cb524c3f", "d13969c10dea0f3fad614b524a143cd0ae5ab1ffc9d58856148c45930fcad2e3", "ea0761019c9f1f81d442cf185319e6387fcc45038adf945bb87e67bfcc2f059e"},
}

// TestBuildByteIdentityOracle lowers and builds the dependence graph of
// every oracle program in a session and compares the digests with the
// recorded ones.
func TestBuildByteIdentityOracle(t *testing.T) {
	for _, op := range buildOracleSources() {
		t.Run(op.name, func(t *testing.T) {
			s := session.Open(op.srcs())
			prog, err := s.Prog()
			if err != nil {
				t.Fatalf("Prog: %v", err)
			}
			g, err := s.Graph()
			if err != nil {
				t.Fatalf("Graph: %v", err)
			}
			enc, err := sdg.EncodeGraph(g)
			if err != nil {
				t.Fatalf("EncodeGraph: %v", err)
			}
			pts, err := s.PointsTo()
			if err != nil {
				t.Fatalf("PointsTo: %v", err)
			}
			penc, err := pointsto.EncodeResult(pts)
			if err != nil {
				t.Fatalf("EncodeResult: %v", err)
			}
			got := buildDigest{sha([]byte(ir.Sprint(prog))), sha(enc), sha([]byte(g.Fingerprint())), sha(penc)}
			if want, ok := buildOracleDigests[op.name]; !ok || got != want {
				t.Errorf("got %s, want %+v",
					fmt.Sprintf("%q: {%q, %q, %q, %q},", op.name, got.ir, got.sdg, got.fp, got.pts), want)
			}
		})
	}
}
