package deploy

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/simrand"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden/deploy-seed1.sha256")

// goldenPath is the deployment digest file, shared with the root
// package's output goldens.
var goldenPath = filepath.Join("..", "..", "testdata", "golden", "deploy-seed1.sha256")

// dumpMap writes a canonical text dump of a map: every fragment and every
// cell of every technology, with each float as its exact bit pattern.
func dumpMap(w io.Writer, m *Map) {
	bits := func(f float64) uint64 { return math.Float64bits(f) }
	for _, t := range radio.Technologies() {
		for i, f := range m.Fragments(t) {
			fmt.Fprintf(w, "frag %d %d %d %016x %016x\n", t, i, f.Tech, bits(float64(f.Start)), bits(float64(f.End)))
		}
		for _, c := range m.Cells(t) {
			fmt.Fprintf(w, "cell %d %s %d %d %d %016x %016x %016x\n", t, c.ID, c.Op, c.Tech, c.Index,
				bits(float64(c.Odometer)), bits(float64(c.Lateral)), bits(c.LoadMean))
		}
	}
}

// TestDeployGoldenDigest pins the full-route deployment of all three
// operators at seed 1 across commits: fragments, cell IDs, indices,
// positions and load means, bit for bit. Regenerate only for an intended
// model change, with
//
//	go test ./internal/deploy -run TestDeployGoldenDigest -update
func TestDeployGoldenDigest(t *testing.T) {
	route := geo.DefaultRoute()
	rng := simrand.New(1)
	var b strings.Builder
	for _, op := range radio.Operators() {
		h := sha256.New()
		dumpMap(h, NewMap(op, route, rng))
		fmt.Fprintf(&b, "%s  %s\n", hex.EncodeToString(h.Sum(nil)), op.Short())
	}
	got := b.String()
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("deployment digests changed:\ngot:\n%swant:\n%s", got, want)
	}
}
