package session_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"thinslice/internal/bench"
	"thinslice/internal/ir"
	"thinslice/internal/papercases"
	"thinslice/internal/randprog"
	"thinslice/internal/sdg"
	"thinslice/internal/session"
)

// buildDigest pins the lowering and dependence-graph output of one
// program: the SHA-256 of ir.Sprint, the SHA-256 of the sdg codec
// payload and the SHA-256 of the graph's Fingerprint.
type buildDigest struct {
	ir, sdg, fp string
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
// builder. Any change to instruction or register numbering, per-node
// in-edge order, caller lists or edge counts shows here.
var buildOracleDigests = map[string]buildDigest{
	"nanoxml@1":  {"99263bd5c4b37a23f2ea947db16e48f8f5491a1af1a60d71bc273754a7c61e0b", "25fc320ce5d93c3cd1c2df4cb73057ca4079ac864342b0ba76d362d183a5aa19", "25fcbce7b9347551136775df353bed53305d20a983d69948caddfa69a6c2d843"},
	"nanoxml@10": {"0914979af9ba6c05a9a10e1bd0647373adcf7d533f29d6eaaf5aa5b77186e4d8", "1edbc854c55c43acdc487b9f0b7ddf99d66a1ae07e774563cc7bc4efeb67f718", "7ab646ecad87f144b1b86b62d89acb1b4347890a41224a454d69be9d4fdecf2d"},
	"nanoxml@15": {"b51ada68a1dd8ed74400be558b96735e41ff558ebbe2c80f4a4c94d1ceae747e", "8b4c60d0abdbe53e82d52ed3ffa475f8af450fe4af39749b93cd621366c56d46", "f335e9b0e5f1cbacb3a3d6eb03122d3d94b462d9a7c5f1df5ed1eeb730f9bdcb"},
	"javac@5":    {"ba1225312483f4371dfea17d3def9f64c64da7c2c609dc2569f751dd9041e748", "fa6dd2648239c88f4a3f72ab84520a0c468438b8f4ddc307706925743805c38c", "a3365896291bb3b9fa6992e1fa001511ee10d3deb233020bc1f9d9f43a8ad62c"},
	"jack@5":     {"52ac6a0dd284e8e8bfa07b8b9cbe45b934741e934bacef661c34ccafd35b7c80", "388acd65b2ead7b1a785be1caa34eb5afec124a6a1c2ea15c2d6529fa98ab80d", "934e8e27b84ced942e99184112889a50b369a30cba7cb2c9c7049e2bb8474c3d"},
	"mtrt@5":     {"5747e1004eaf27acd0ca7de86ca483410deb932544bc5a0433abcfd8fc91679f", "bb66f497aafb84a38907907a951173b2fbed327248f5dbcfe18e3692d78210da", "6aee44c80d0de148099347ac59a6b5f9522fdfee70904e262f4d3d20e4e004ac"},
	"firstnames": {"a56653796449c4a0056e5eecaa2cd1db009ce0bf825e53e672cbedf433f479b9", "5d2a992fade7b445bdb805fee52fccfd1b893df19234c6e62cd707b9fef31008", "32bbe8573be3b72fa95563e6825dde880d751696fc73b109a19d586d7d426d06"},
	"toy":        {"29b574b1bc6864317887b77e5f4edc439b2303336c13af6355b2f177e47f6adf", "bce2c9d8be2814c787d4feef9f5475effd37cdf14eb671dbccc8c904e386a57c", "06c10ea2d5c3e96ade0384aeab9cf2907457a695de63b9cd8b92cba373a8ede5"},
	"filebug":    {"2da3344ebcae8541d015ed2ecc27032b5053f70973ca48e2489b91ca81f732e5", "2ecacb94c1bb692fe0eaf96a4c5043c21cca16b688c732b525085e77fac771ba", "3ecf368ceef63a1ded6acf3e01dbc781019495761d9738806623e7019a173462"},
	"toughcast":  {"631c6caec37c08c33b6e2162ce80b4c9844556c33a2d7ef79f4f5f5713200ae3", "15a8b23ab6c8e9d07a7a5ffaed49bcaf7abab704d81df3f335347c54197f0243", "3065cd7afc42c7234578865fd970ad252565743903e005aaa8829f59abfd041d"},
	"rand0":      {"5355b2d72de7cdd5390c9ae2c0c31d295a43d1650bc4b709ff996e8e212f4ce5", "fbbd1e71f20a6727978a6d945e69a9e78d05bc11d1ac5257d0e292a8139bde7f", "5c4ee58b40fb5e0a7d539eecb7141bab07a9b722f6a8e27d80a72c3655e95b8b"},
	"rand1":      {"6052a10464eb8ba3248f7a31f32b84a0a4ced5dc27663382a4db5c0705d5b880", "cf53762c3bae5219d5baa54c103a99cc449be2deb050a319fc0b33afc8d262f6", "2517bc4742871aef18635d9dc8b7c8551fb30550c0252c6288cb4b7313f1607f"},
	"rand2":      {"4f503b596a53dcee50d50ebcbd4fc98ce20942d3bae8f71f5a30624f2e10596a", "a99140e3cb0ebabdb7ce1496148a9112058b9c6da91d667e18841d1c9fdef929", "cab2aaa87bcce87764f0fd06760a3147e506966633ef52cb61b46761a31198ea"},
	"rand3":      {"cbdbc90e8d19e6e2e44489fc82b7918f7fb0f36fa8e4d9b3835da5b4c3eb39af", "baa23d1929f21ac386606df2f74f9a79c5ea062b1d40ae906c0fa54c4ba0700a", "6ad40c59c5dd811204dc91a06bae194338ec70d391879f1bf8def65163164d27"},
	"rand4":      {"2edd67e9d1fb38ee6650a3cfb76f881b97a5fc4287f2a83360a6b9ace15c6b0c", "ffa0a24b2823a1a7cd9caab735dc3edf6af704adc5183a7382a02a11fde1b51e", "927505abd055c6154c1c3502272edbd3771c28218b17931a418ccb20aa290142"},
	"rand5":      {"57f5a28f5c3d28dc296ac28d16c00fa62b99efb0c8de3eb1b2c95c964dd7f15d", "4154c660b7baa388b8e82927b0c0843d1b4dd623db773aaa2a198a8670b86e69", "cd763fde32b0b359f1c148c5860147a63549b6f24110fc96faed4a4a72876ca9"},
	"rand6":      {"48b3c716b855f4415cb65bba0d08cec42deb6a23b31b25de39b7683f17bab821", "5f1de0f4b1dbb66465e9883b12a117c22e86b6d80c66cf2dd1c426e8e71878c4", "d9e8e59a0cb086640c32d3897d2789eddbd0ea9812ea7652a15b3795c499533c"},
	"rand7":      {"1c3e9d4e6a4a881b47fbdd02c9d78d05feb2f9384c4071bd9c48d4a50f89db00", "13ed2d1dae0014a1dd44e46b7f727aac61ac3fb2591d6cf4c90ada44dd85b2a9", "c686c4af8b0ca839b8842f6fac53e29c84790ef05465a1ac73493dd5a0f07266"},
	"rand8":      {"979a59109d36d8920990ed7dbdef5032db9a56fbb863768d4df6b07cde2fd872", "dbd31eaf427b7e5ce70c65f042e4442af2410781cda3b7f76f56b5fef43fd935", "e8fd60178c2248861af2679b7f9a19055cda3a1c2b70241fd81b9451c1326cdd"},
	"rand9":      {"7f1ad7536ea9eff3e032b9fe99dc11f7f8114b01298e1867bf5ab52adde4076a", "92b471fb6140d76056279d7965e34422e9d7e1f43009f3c00db1d5fe24dfea53", "fc27c8edb538c6dcdf3b1042db90b175152e2ca0538633da72564011c5103ebf"},
	"rand10":     {"0f201e69028f027a9dfaa9376e650b3adf8c69dc56728fe3ed7a2c98b377d73d", "74447791526181ae87fe189f920d9ce12710c3f881762a2392930ae1be990eee", "c8540e42bb287aed96449eb958f61d030bedb7a463d2b1cd3b5c95732302aedf"},
	"rand11":     {"740e1933c1c89051e173026b380fb5ce9e46894800ccfd79461539ac59e60bb6", "1134cfde706dcb892f8f1ab0199eb5593ad3faff6ad5e728994e48f4195b39c8", "10b9dcf0ff15d74254f5426b40c09f39dd805f47b247f754491acf1f1744ad6c"},
	"rand12":     {"17aaf87c109b21914be5cd8ee4e3b8e5230aba832b4abeb3c39559d09d9681c4", "c747745f01614168294a32365424167fb879b78905b6a151968b5459bed58ae6", "1461826fd50ceed2588dfa6a212c2f581734c259edeb4eb516025f148a39afe6"},
	"rand13":     {"b24a066bd1705f122228d4c7d74749640fefc7c018bc4efee5879137bbe4a93d", "89c07af39e59c3c56656f28d8829082a4a2c1a9427fae7056c8d5a4c2c3bdafc", "0c23331623d3f45761c642b00a2df137575c373445e9e8ad0288f39f079f2356"},
	"rand14":     {"ceedde6356b97105354c489a258dbc995f9f28b97a3de54e8e6238956c4cc53d", "1cd1ad7020654f35297de1fcedceea903db3c65c59add21654d7f7f0928a8477", "264f7a1d99277c0d50255b76dc587c57688b82b2464d8c4202cc429b38b28a53"},
	"rand15":     {"24026af6191a48c0abbfa521274b21c348074f35740499ed281f3d7fc813d650", "e022f2d05d5023833ae53758581172bd8175fe0a26917e2f7d94ce983982fe88", "0a60ca7a9d3969a627aabbcd44411a22e0cb5425d8c4ceec2b055e6552eeea10"},
	"rand16":     {"5b8b6f9886a3daa5fb4d071e9a24941dd95198c08be7b6bf5d78da8e2c6d0705", "7cf7834092d83ab1369e450dab42ff1fbbb02508c2e232bd415b15ca27a4db00", "558f155d424f1ffd01d459cebfb81556472f56982c2179a5027ae2d031fc1919"},
	"rand17":     {"0dce4df66a7f2fffe189f72c9ff770bf2f28b97be81c7074991b831858538f06", "19256f0192595630a6ce9e6736c46fc3f66bf70821a2a6469bdee5e714ed7ce6", "f2879ad5a06759a76b763be735259030f4a6c8ddca0cb347eccfa827c82c6c9e"},
	"rand18":     {"b72fe38ee27d015a6bab369f652fb617202e5935c31ab789e4f0e67137edb8ae", "5ec1ec3eecf686564c389fe4c057577b8ea2029a99712d90061d118f7c68c5ee", "83ac6435aad9280fa10f4ecbe96a4431992353bbdb9c24e1943bca6778c5627a"},
	"rand19":     {"b0f35e3ce988474dacf9eb740c52c239d7224c37f589c6daca42b224b0c4f213", "3afc1a6795979a33e787164b2128e842c90e2b5aaa0e448211965950d83e16f8", "1f831544cf80748614085e89921eb8e3d92b64d956d50a32911a4388a30f0981"},
	"rand20":     {"92582dd54a4238dc0a709065370295bd9d6a2dc100f2dee4d22db2b6a00c881e", "44a77497bbe4b7ec15279bd68c12a5992192e74f8dbc07939a5f0e9a788304ff", "8e01eaaa5696bf3ff7132a3140bd31e938745360e2b87ed0382556c150e02e37"},
	"rand21":     {"5ab6e98fc5e56dcbf8e8fa7aacb75a6195c0fb7f3c644af9e4e0c6269a266e2c", "081dd3ea8ac47ba9a9362998421c3e2fa226cf4c79250db842d3e0b64576500b", "72c2313fe8e5d122b979e13f3ed266e80c8c10e688f17ca62f24d82790066e5a"},
	"rand22":     {"6d5729c600e0e72522cc8c7fc3800a0d1f66085d37fc3dcd23f928d17d2f0498", "01f4a4863a6967ab5cf689f259b2f3819c0400f8532120866b3fe088ed84f5af", "b34ebb10a2e0dd29c2c0bea79934f7cc62b8ad713557114a1d99258af5529bbd"},
	"rand23":     {"48d1b4aab6c332be61bf8dd5415cccb5db426c43c4a6fbcb0da4b4f05e81636f", "b78d018c62deee12cc7ef75f4f01b1e6171d862c362bc94c154a218446da7553", "5448f24efbd6526157aa0777a2f65111dce41c4dc21f1b7dad2f0e89d3c1d231"},
	"rand24":     {"424c5e93d33d5c93633df71188fc912002b9dce48b1ff046d8d9db94fb858670", "7d4f0a8df63e4f3496d0fb42e06bc80cd0ef59e5c687c524997616135fd52e3c", "9dc1b881b7268f77b0147d3f72768591680bb2097071c857b56181e2fa1e52dc"},
	"rand25":     {"1a79b934b3ee77b1d100c21bf6663f03de36af4b63d75889627613f35ee47b97", "fd43138ee4178bb393cf1feb078aeb45ff8564c5fec35f27c7b569dbfaf76b5d", "2ecc737dcb6e7d8eafb405870f9a5c7d3d3047cfaafe7b6b33ee510bdc920bc6"},
	"rand26":     {"96f9b39f1c3c18ccbba1ba61f0ccfe4d1cfac5eb82dd273f76d9882896313c48", "50e6761be344c58fdf54a895f12418eab5eb7d6625be2e3cf7eaed0401ee2eb9", "c2525a2d0b608c75180bc9f0b9356566097a37488e24265550eb3e24eb76a402"},
	"rand27":     {"5652253360e37afbf6197f0f4f9fcc85d3d239e34ebc765a30a60c34fca586e2", "97a520dd197762331439d33f2d7e976839f77a6bbd5da0efd707783b85884fb3", "3390a35bc2b779e9fad3f3bed1b43344d67bb121cf336d8ff063a52246c286b9"},
	"rand28":     {"90c261a2ee64feae470f20e466894712b2c15948e9eb549bf892699448c4b0af", "11086b4853ac17abb2ed9d97990242925bb796cdbb9fe4722b126b566c69bcb1", "6a541f7376339e1e6b5c1a8d8df498398e3999374e17adee0ed3edcc90c6e217"},
	"rand29":     {"c0925af3ba3052642c1ec133c02adbe0a2211d64f5d817561995b253cf1d31d9", "e9f595b6b5f9109f8ab19fb83a3da7fad689f59aa1efbd963a158bd84ff38c78", "a8c20e2629d3dd12a4922e940199703bdafe9dc75cf11a283352d2539a5b4185"},
	"rand30":     {"31a1c3aad066e48f7fb06b4b44b54096f72bc1799dd5e3f3a359e0b94d2cbb55", "d054416f78eb880bab49bdc04e98ce12b7d0e85260dac9c0079874e0120299fa", "45f119db26e4804d3dc494eb0fcaea44301c2cdd5f4f1ee9d2276f8b092d0e27"},
	"rand31":     {"e9b9e0e57945d1dfe33e6bd0120101236b3ba05112cbe89be0e5a47b47a3584c", "00e4ea2a86c9acb294b1d89b5e365489b8e222b082b3515beb70c212983553b7", "7245834289b1b48a088c9e0433cbad547376e2ab0b6c556c634276c0d668a1c8"},
	"rand32":     {"67e070a53f59c084139b1e903f9cfd94c12c29159ed1a98347b332dcb7203021", "15ce0b5acd8899e7183ec2bdc434f98b2771e37349afe4851b8abf31a520f89b", "500cb400ca5ecf0b3abf12bfc8a18f2581a0e57cb9ce6975e53082b7c7419f6f"},
	"rand33":     {"ad56d3c89532f39ef6efdba092c21dd3a33e0847deee1ad29f6847c68c2f154c", "76cfa8939093a6b5eb2519f556e4e7d23d05f286a63f1e43be66957492ed6a2c", "372ee03c9aec04b110fdf7de498122a6537425b05bd9e4b70ed14f2c6e7e72c5"},
	"rand34":     {"dd8c363e12ae0f3d4ad99b25de263bb457b1a1ae56d1512fd150cb45c8468176", "74d4d6da20760cb7a9885437fb8bff965590a71ab654c680c324dc5d066af07b", "7522365b3d4b71e82d965bb82c42013fd4d474c63bcf36c6353e1705abf7e559"},
	"rand35":     {"ea32da0560e40d88c18825c39e0be32160de51a4e73ad6f2d062bbef30a98d71", "6091ec00ca8eec74883823da65fe0a695fb50e6eef1a98579e063563e9505905", "370963204f90b2d00c4674fd9b8d86a0f6aa2841de3941fa7a8737f7912dd14b"},
	"rand36":     {"14199b54fdeef26f9bb539330d92fe53d402f0577ae0d0632862a69750b62427", "c2ef29d91ab0e46249444f785cb1eb9e1020cac4a2269c9f0b4b9ea6104099aa", "491cbf33ac86812ac24193010611424a7364a2398c659b5dfe87676425119715"},
	"rand37":     {"c537dae01ee841b65b5cfa939fb7dfe8d833f3968edd4346ac45397996634a83", "63b66155efc7ae7b8c5048a161d7a13c3688b8b35b742221233f9fc9813c7ab5", "f51861ecb6e52515e4bef9ce89156f6bd528f85660f5780abbadaba1d429ab2d"},
	"rand38":     {"791832bb787952a41caa44ac2c27dd591b370ea71603b25ed841aea1656fd05b", "79d6c5b45362fb1ebb9686adb4861c76107f565ca8ca378ed080e9bfd0438da2", "66d933e90b5e1206f68c74b2ca4c0965f0c7e386628d5c3f1feabc677fe4c52b"},
	"rand39":     {"75ce69f6e9852b38565efe7e1640832baf62392cab5adfd40774e4da007c6b46", "8c2bcd4ca48633d4384496df7385bcec0f7cae41b6df3b5f10636832b4233167", "d13969c10dea0f3fad614b524a143cd0ae5ab1ffc9d58856148c45930fcad2e3"},
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
				got := buildDigest{sha([]byte(ir.Sprint(prog))), sha(enc), sha([]byte(g.Fingerprint()))}
				if want, ok := buildOracleDigests[op.name]; !ok || got != want {
					t.Errorf("%s: got %s, want %+v", mode,
						fmt.Sprintf("%q: {%q, %q, %q},", op.name, got.ir, got.sdg, got.fp), want)
				}
			}
		})
	}
}
