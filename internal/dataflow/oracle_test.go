package dataflow_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"thinslice/internal/bench"
	"thinslice/internal/dataflow"
	"thinslice/internal/papercases"
	"thinslice/internal/randprog"
	"thinslice/internal/session"
)

// oracleProgram is one input of the byte-identity oracle.
type oracleProgram struct {
	name    string
	sources func() map[string]string
}

func benchSources(name string, scale int) func() map[string]string {
	return func() map[string]string { return bench.Generate(name, scale).Sources }
}

func fileSources(file, src string) func() map[string]string {
	return func() map[string]string { return map[string]string{file: src} }
}

func randSources(seed int64) func() map[string]string {
	return func() map[string]string { return randprog.Generate(seed, randprog.DefaultConfig) }
}

// oraclePrograms are the /check benchmark mix, the paper's figures and
// a few random programs.
var oraclePrograms = []oracleProgram{
	{"nanoxml@1", benchSources("nanoxml", 1)},
	{"jack@5", benchSources("jack", 5)},
	{"mtrt@5", benchSources("mtrt", 5)},
	{"firstnames", fileSources(papercases.FirstNamesFile, papercases.FirstNames)},
	{"toy", fileSources(papercases.ToyFile, papercases.Toy)},
	{"filebug", fileSources(papercases.FileBugFile, papercases.FileBug)},
	{"toughcast", fileSources(papercases.ToughCastFile, papercases.ToughCast)},
	{"rand1", randSources(1)},
	{"rand2", randSources(2)},
	{"rand3", randSources(3)},
}

// oracleDigest pins one solve: the SHA-256 of its encoding and its
// path-edge and summary-edge counts.
type oracleDigest struct {
	sha          string
	pathEdges    int
	summaryEdges int
}

// oracleDigests were recorded with an independent, hash-map-based
// implementation of the same tabulation. Any change to fact interning
// order, discovery order, discovery parents or edge counts shows here.
var oracleDigests = map[string]oracleDigest{
	"nanoxml@1/init":   {"a37bef79b92cf03a7800692b52e6355676ea459fc972576076172425becacf17", 107301, 5500},
	"nanoxml@1/taint":  {"54f562669af0d51a62b455b0cae3b1c57c01a222deb9ba72e785c21b04d4efad", 13510, 721},
	"nanoxml@1/close":  {"3a5cf0b9a8e040d42bb2e21dcfd72b63efae1266f845fbc518396d17c85cea48", 2121, 107},
	"jack@5/init":      {"ce01e8095c3a080fd12fc1509fbd6ac14ea9da06a4f05f0ef61ed03b275e79bd", 168831, 10400},
	"jack@5/taint":     {"22fa0a94d2200fb0de98fb4bb5364b246815b76da0ca4110f691c260252ccf67", 20343, 1309},
	"jack@5/close":     {"fa2d16ee0ff6c4c34f045a72d29a7ffc6be20716e40f3334a00d8bea1954615b", 2481, 157},
	"mtrt@5/init":      {"7b5438a3f4f6bc9c00f2ec4280937ba3809fc92fabd249c270778b8a6fdbd0e0", 26108, 2567},
	"mtrt@5/taint":     {"fca8ada2e573c4cde1d527588d980ece13acdedcd4341f6d8db824e77e80c35f", 91509, 17468},
	"mtrt@5/close":     {"29bf616965047ef8168b384c47e691f879eb19792b4e0b4abab0081c515d8812", 361, 27},
	"firstnames/init":  {"9f1fe6128801f1ce77f1c65ab5dfa1c5a4bccd06c27f715a0c2ffc0e3e5a0429", 392, 48},
	"firstnames/taint": {"d92dbe45f9dea7ee222f2b8e4460572f62ccdc0f08ef5527ac26d038a7fe3ab9", 582, 57},
	"firstnames/close": {"1117ce20787f97e0b63b199c00cd269919d5f922fcd8f7cce1c68dfd95b802fc", 122, 13},
	"toy/init":         {"a7d045e133019e3f5ab77d04d42a7c0bf9e399e74c50e243e12a295929ae1352", 20, 3},
	"toy/taint":        {"4f24a57fc6c9de956a11e6ef4e724ecfaff4b50e6d1721c4ab3bb8ef6b070dea", 14, 2},
	"toy/close":        {"a31b1463dcda6b1062e3a8a434cc46f29a30786b2e7a0bcbb5d75a2ff918ef15", 14, 2},
	"filebug/init":     {"119f84e21255942370ecdad7193fa7798e5db82d3099e342a11f51878157a966", 317, 46},
	"filebug/taint":    {"94550f5d2058433b7b472d154f4c10710fa3ba4b675fc5aac1844d63104e4f33", 84, 11},
	"filebug/close":    {"4a2ad21423f6f3db3712da85c5f6ec2c5f08a99bd3218c490faa178747318be0", 106, 17},
	"toughcast/init":   {"499e2a8a424fd5bd40fe9ee3163824967f024b11eba2b2987d95fd036fb06b39", 81, 19},
	"toughcast/taint":  {"160cde688fabcf467fb26e2f3c9e2ee30c737a6a9e179118d1fc4042b66fcc44", 29, 5},
	"toughcast/close":  {"1f2c6f5b4bd21b2bdbf51485b4aa8bee97c376c3cc86910c18251ae9117d5983", 29, 5},
	"rand1/init":       {"8c06a263f8c6355f667a3abd8f5ee19fced37518f42225e875bf6a65919f7bc2", 6610, 402},
	"rand1/taint":      {"1edfb390d236fd8552314ee665df674d0a29f7635c005adb0cc461289c4485a2", 1068, 23},
	"rand1/close":      {"f332e4f41730d7c9eabb8a03b515ec1d8aaff74c0d6194359243aacc17a044e1", 322, 18},
	"rand2/init":       {"9e0d49c094386d7f9e65c0c127a0e0938dfaa8ac7dcda6a237bb27054a31623f", 5264, 340},
	"rand2/taint":      {"299cd758bfb5ea869e98ab2c7dfe2e7346fe01b47dd2321557424c860dd56334", 5606, 164},
	"rand2/close":      {"c563cb7e84283d4d0ccd083e6d7ec41b7593561f49d13680e62ba48cbafa58c9", 302, 18},
	"rand3/init":       {"42f4e2cea7f99a1238ded6ceb24ca32c25825cf6f259aad438484e81e24ec0f6", 6807, 375},
	"rand3/taint":      {"417c65e820ef1e689a43168da82dea15eb3994a229ef87cb0cb42d752c6c5fa2", 6973, 263},
	"rand3/close":      {"ef4530d48c992e8834de56fa0c51a7ea5f56d0d0296f9845e591715aa90f832c", 317, 16},
}

// TestSolveByteIdentityOracle solves every problem on every oracle
// program and compares the encoding digest and edge counts with the
// recorded ones.
func TestSolveByteIdentityOracle(t *testing.T) {
	problems := []dataflow.Problem{dataflow.InitProblem{}, dataflow.NewTaintProblem(nil), dataflow.CloseProblem{}}
	for _, op := range oraclePrograms {
		t.Run(op.name, func(t *testing.T) {
			s := session.Open(op.sources())
			prog, err := s.Prog()
			if err != nil {
				t.Fatalf("Prog: %v", err)
			}
			pts, err := s.PointsTo()
			if err != nil {
				t.Fatalf("PointsTo: %v", err)
			}
			g, err := s.Graph()
			if err != nil {
				t.Fatalf("Graph: %v", err)
			}
			cg, err := s.CHA()
			if err != nil {
				t.Fatalf("CHA: %v", err)
			}
			in := dataflow.Inputs{Prog: prog, Pts: pts, Graph: g, CHA: cg}
			for _, p := range problems {
				res, err := dataflow.Solve(in, p, nil)
				if err != nil {
					t.Fatalf("Solve(%s): %v", p.Name(), err)
				}
				enc, err := dataflow.EncodeResults(res)
				if err != nil {
					t.Fatalf("EncodeResults(%s): %v", p.Name(), err)
				}
				sum := sha256.Sum256(enc)
				got := oracleDigest{hex.EncodeToString(sum[:]), res.PathEdges, res.SummaryEdges}
				key := op.name + "/" + p.Name()
				if want, ok := oracleDigests[key]; !ok || got != want {
					t.Errorf("%s: got %s, want %+v", key, fmt.Sprintf("%q: {%q, %d, %d},", key, got.sha, got.pathEdges, got.summaryEdges), want)
				}
			}
		})
	}
}
