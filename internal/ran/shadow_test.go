package ran

import (
	"math"
	"testing"

	"github.com/nuwins/cellwheels/internal/deploy"
	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/simrand"
	"github.com/nuwins/cellwheels/internal/unit"
)

// TestShadowMemoMatchesHashNormal drives a UE past 50 km and checks the
// shadow memo against direct hashNormal calls: every entry after every
// tick, the serving cell's RSRP, and draws read straight after a forced
// slot collision evicted them.
func TestShadowMemoMatchesHashNormal(t *testing.T) {
	ue, drive := testUE(t, radio.Verizon, 3)
	ue.SetTraffic(deploy.HeavyDL, drive.State().Time, drive.State().Waypoint)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

	var ticks, hits, collisions int
	for ds := drive.State(); ds.Odometer < 50*unit.Kilometer; ticks++ {
		ds = drive.Step(tick)
		st := ue.Step(ds.Time, ds.Waypoint, ds.Speed.MPH(), tick)
		for i, e := range ue.shadow {
			if e.cell != nil && (shadowSlot(e.cell) != i || !same(e.draw, hashNormal(e.cell.ID, e.bucket))) {
				t.Fatalf("tick %d: slot %d holds %s bucket %d draw %v, want slot %d draw %v",
					ticks, i, e.cell.ID, e.bucket, e.draw, shadowSlot(e.cell), hashNormal(e.cell.ID, e.bucket))
			}
		}
		if ue.cellIdx < 0 {
			continue
		}
		c := ue.cfg.Map.CellAt(ue.tech, ue.cellIdx)
		bucket := int64(ds.Odometer / shadowBucket)
		want := hashNormal(c.ID, bucket)
		shadow := unit.DB(want * radio.Band(c.Tech).ShadowSigma)
		if wantRSRP := radio.RSRP(c.Tech, c.Distance(ds.Odometer), shadow, radio.BeamGain(radio.Verizon, c.Tech)); st.RSRP != wantRSRP {
			t.Fatalf("tick %d: serving RSRP %v, want %v", ticks, st.RSRP, wantRSRP)
		}
		if e := ue.shadow[shadowSlot(c)]; e.cell == c && e.bucket == bucket {
			hits++
		}
		// Evict the serving cell's entry with the cell one memo length
		// further along, which maps to the same slot, then read both.
		if j := ue.cellIdx + shadowMemoSize; j < ue.cfg.Map.CellCount(ue.tech) {
			other := ue.cfg.Map.CellAt(ue.tech, j)
			if shadowSlot(other) != shadowSlot(c) {
				t.Fatalf("cells %s and %s do not share a slot", c.ID, other.ID)
			}
			if got := ue.shadowDraw(other, bucket); !same(got, hashNormal(other.ID, bucket)) {
				t.Fatalf("tick %d: colliding draw for %s = %v, want %v", ticks, other.ID, got, hashNormal(other.ID, bucket))
			}
			if got := ue.shadowDraw(c, bucket); !same(got, want) {
				t.Fatalf("tick %d: draw for %s after eviction = %v, want %v", ticks, c.ID, got, want)
			}
			collisions++
		}
	}
	if collisions < ticks/2 {
		t.Errorf("forced %d collisions in %d ticks", collisions, ticks)
	}
	// The serving cell's entry must have survived from the previous tick
	// in most ticks, or the memo is not doing its job.
	if hits < ticks*9/10 {
		t.Errorf("serving cell found in the memo on %d of %d ticks", hits, ticks)
	}
}

// BenchmarkUEStep times the RAN model's per-tick step on a moving UE, so
// each tick also runs the handover check over the neighbour cells. One op
// is a fresh UE stepped through the first 12,000 ticks (10 minutes) of a
// drive, precomputed outside the timer.
func BenchmarkUEStep(b *testing.B) {
	route := geo.DefaultRoute()
	rng := simrand.New(1)
	m := deploy.NewMap(radio.Verizon, route, rng)
	drive := geo.NewDrive(route, geo.DefaultDriveConfig(), rng)
	states := make([]geo.DriveState, 12_000)
	for i := range states {
		states[i] = drive.Step(tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ue := NewUE(UEConfig{Op: radio.Verizon, Map: m}, simrand.New(2))
		ue.SetTraffic(deploy.HeavyDL, states[0].Time, states[0].Waypoint)
		for _, ds := range states {
			ue.Step(ds.Time, ds.Waypoint, ds.Speed.MPH(), tick)
		}
	}
}
