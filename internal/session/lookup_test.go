package session_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"thinslice/internal/analysis/cha"
	"thinslice/internal/analysis/modref"
	"thinslice/internal/analysis/pointsto"
	"thinslice/internal/budget"
	"thinslice/internal/dataflow"
	"thinslice/internal/diskstore"
	"thinslice/internal/sdg"
	"thinslice/internal/session"
)

// derivedOutputs drives s through every artifact derived from the
// points-to result and renders each one for byte comparison: codec
// bytes where the kind has a codec, node and edge counts otherwise.
func derivedOutputs(t *testing.T, s *session.Session) map[string]string {
	t.Helper()
	g, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	mr, err := s.ModRef()
	if err != nil {
		t.Fatal(err)
	}
	cg, err := s.CHA()
	if err != nil {
		t.Fatal(err)
	}
	cs, err := s.CSGraph()
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{"cs": fmt.Sprintf("%d nodes, %d edges", cs.NumNodes(), cs.NumEdges())}
	for kind, encode := range map[string]func() ([]byte, error){
		"sdg":    func() ([]byte, error) { return sdg.EncodeGraph(g) },
		"modref": func() ([]byte, error) { return modref.EncodeResult(mr) },
		"cha":    func() ([]byte, error) { return cha.EncodeCallGraph(cg) },
	} {
		b, err := encode()
		if err != nil {
			t.Fatalf("encode %s: %v", kind, err)
		}
		out[kind] = string(b)
	}
	return out
}

// starvedSession opens a session whose points-to phase is capped so
// tightly that the solver degrades, and drives every derived artifact
// through it.
func starvedSession(t *testing.T, opts ...session.Option) {
	t.Helper()
	b := budget.New(context.Background(), budget.WithPhaseSteps(budget.PhasePointsTo, 5))
	s := session.Open(firstNamesSources(), append(opts, session.WithBudget(b))...)
	pts, err := s.PointsTo()
	if err != nil {
		t.Fatal(err)
	}
	if !pts.Truncated && !pts.Downgraded {
		t.Fatal("tiny points-to budget did not degrade the result")
	}
	derivedOutputs(t, s)
}

// assertFreshDerived checks that s's derived artifacts match a cold
// build byte for byte and that s built each of them itself.
func assertFreshDerived(t *testing.T, s *session.Session) {
	t.Helper()
	got := derivedOutputs(t, s)
	want := derivedOutputs(t, session.Open(firstNamesSources()))
	for kind := range want {
		if got[kind] != want[kind] {
			t.Errorf("%s served from a degraded build (%d bytes, want %d)", kind, len(got[kind]), len(want[kind]))
		}
	}
	if st := s.Stats(); st.SDGs != 1 || st.ModRefs != 1 || st.CHAs != 1 || st.CSGraphs != 1 {
		t.Errorf("derived artifacts reused instead of rebuilt: %+v", st)
	}
}

// TestDegradedDerivativesNotCached: artifacts built over a degraded
// points-to result inherit its incompleteness, so a later unbudgeted
// session in the same store rebuilds them instead of reading them back.
func TestDegradedDerivativesNotCached(t *testing.T) {
	st := session.NewStore()
	starvedSession(t, session.InStore(st))
	assertFreshDerived(t, session.Open(firstNamesSources(), session.InStore(st)))
}

// TestDegradedDerivativesNotPublished is the disk variant: nothing
// built over a degraded points-to result reaches the disk tier, so a
// later session over the same directory finds no record to read back.
func TestDegradedDerivativesNotPublished(t *testing.T) {
	disk, err := diskstore.Open(t.TempDir(), 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	starvedSession(t, session.WithDiskCache(disk))
	assertFreshDerived(t, session.Open(firstNamesSources(), session.WithDiskCache(disk)))
	if q := disk.Stats().Quarantines; q != 0 {
		t.Errorf("%d degraded records were published and later quarantined", q)
	}
}

// garbageDisk returns a disk tier filled by a session over srcs, with
// every record of kind replaced by a valid container around an
// undecodable payload and every other record removed.
func garbageDisk(t *testing.T, srcs map[string]string, kind string) *diskstore.Cache {
	t.Helper()
	disk, err := diskstore.Open(t.TempDir(), 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	tieredOutputs(t, session.Open(srcs, session.WithDiskCache(disk)))
	planted := 0
	for _, key := range disk.Keys() {
		_, k, ok := disk.GetRecord(key)
		switch {
		case !ok:
			t.Fatalf("record %s unreadable", key)
		case k == kind:
			if err := disk.Put(kind, key, []byte("not a "+kind+" payload")); err != nil {
				t.Fatal(err)
			}
			planted++
		default:
			disk.Quarantine(k, key, "not under test")
		}
	}
	if planted == 0 {
		t.Fatalf("no %s records to overwrite", kind)
	}
	return disk
}

// TestQuarantineLogNamesDecodeError: a garbage sdg payload read through
// a session leaves a quarantine.log line naming the kind, the record's
// key and the decoder's error.
func TestQuarantineLogNamesDecodeError(t *testing.T) {
	srcs := taintSources()
	disk := garbageDisk(t, srcs, "sdg")
	keys := disk.Keys() // garbageDisk quarantined every other record
	s := session.Open(srcs, session.WithDiskCache(disk))
	if _, err := s.Graph(); err != nil {
		t.Fatal(err)
	}
	prog, err := s.Prog()
	if err != nil {
		t.Fatal(err)
	}
	pts, err := s.PointsTo()
	if err != nil {
		t.Fatal(err)
	}
	_, decodeErr := sdg.DecodeGraph([]byte("not a sdg payload"), prog, pts)
	if decodeErr == nil {
		t.Fatal("the garbage payload decodes")
	}
	log, err := os.ReadFile(filepath.Join(disk.Dir(), "quarantine.log"))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range keys {
		want := " kind=sdg key=" + key + " reason=" + decodeErr.Error() + "\n"
		if !strings.Contains(string(log), want) {
			t.Errorf("quarantine.log has no line ending %q:\n%s", want, log)
		}
	}
}

// tieredOutputs drives s through Graph, ModRef and a taint Dataflow and
// returns the codec bytes of each, with the points-to result they rest on.
func tieredOutputs(t *testing.T, s *session.Session) map[string][]byte {
	t.Helper()
	pts, err := s.PointsTo()
	if err != nil {
		t.Fatal(err)
	}
	g, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	mr, err := s.ModRef()
	if err != nil {
		t.Fatal(err)
	}
	df := mustDataflow(t, s, dataflow.NewTaintProblem(nil))
	out := map[string][]byte{}
	for kind, encode := range map[string]func() ([]byte, error){
		"pts":    func() ([]byte, error) { return pointsto.EncodeResult(pts) },
		"sdg":    func() ([]byte, error) { return sdg.EncodeGraph(g) },
		"modref": func() ([]byte, error) { return modref.EncodeResult(mr) },
		"df":     func() ([]byte, error) { return dataflow.EncodeResults(df) },
	} {
		b, err := encode()
		if err != nil {
			t.Fatalf("encode %s: %v", kind, err)
		}
		out[kind] = b
	}
	return out
}

// TestGarbageRecordsQuarantinedForEveryKind: for each disk record kind,
// garbage records of exactly that kind cost a rebuild, never a wrong
// answer. The bad records are quarantined, and the rebuild leaves the
// disk tier warm enough that the next session builds nothing.
func TestGarbageRecordsQuarantinedForEveryKind(t *testing.T) {
	want := tieredOutputs(t, session.Open(taintSources()))
	for _, kind := range []string{"ir", "pts", "sdg", "cha", "modref", "df"} {
		t.Run(kind, func(t *testing.T) {
			disk := garbageDisk(t, taintSources(), kind)
			before := disk.Stats().Quarantines
			s := session.Open(taintSources(), session.WithDiskCache(disk))
			got := tieredOutputs(t, s)
			for k := range want {
				if !bytes.Equal(got[k], want[k]) {
					t.Errorf("%s differs from a cold build over garbage %s records", k, kind)
				}
			}
			if disk.Stats().Quarantines == before {
				t.Errorf("garbage %s records were not quarantined", kind)
			}

			s2 := session.Open(taintSources(), session.WithDiskCache(disk))
			tieredOutputs(t, s2)
			builds := s2.Stats()
			builds.Parses, builds.PreludeParses, builds.Checks = 0, 0, 0
			if builds != (session.Stats{}) {
				t.Errorf("session over the rebuilt disk tier built artifacts: %+v", builds)
			}
		})
	}
}
