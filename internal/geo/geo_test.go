package geo

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"github.com/nuwins/cellwheels/internal/unit"
)

func TestHaversineKnownDistance(t *testing.T) {
	la := LatLon{34.0522, -118.2437}
	boston := LatLon{42.3601, -71.0589}
	d := Haversine(la, boston)
	// LA–Boston great circle is ≈ 4,170 km.
	if d.Km() < 4100 || d.Km() > 4250 {
		t.Errorf("LA-Boston = %.0f km, want ≈4170", d.Km())
	}
}

func TestHaversineProperties(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := LatLon{math.Mod(lat1, 90), math.Mod(lon1, 180)}
		b := LatLon{math.Mod(lat2, 90), math.Mod(lon2, 180)}
		if math.IsNaN(a.Lat) || math.IsNaN(a.Lon) || math.IsNaN(b.Lat) || math.IsNaN(b.Lon) {
			return true
		}
		ab, ba := Haversine(a, b), Haversine(b, a)
		if ab < 0 {
			return false
		}
		if math.Abs(float64(ab-ba)) > 1e-6 {
			return false // symmetry
		}
		return Haversine(a, a) < 1e-6 // identity
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimezoneAt(t *testing.T) {
	cases := []struct {
		lon  float64
		want Timezone
	}{
		{-118.24, Pacific}, // LA
		{-115.14, Pacific}, // Las Vegas
		{-111.89, Mountain},
		{-104.99, Mountain}, // Denver
		{-95.93, Central},   // Omaha
		{-87.63, Central},   // Chicago
		{-86.16, Eastern},   // Indianapolis (EDT)
		{-71.06, Eastern},   // Boston
	}
	for _, c := range cases {
		if got := TimezoneAt(c.lon); got != c.want {
			t.Errorf("TimezoneAt(%v) = %v, want %v", c.lon, got, c.want)
		}
	}
}

func TestTimezoneOffsets(t *testing.T) {
	if Pacific.UTCOffset() != -7*time.Hour {
		t.Errorf("Pacific offset = %v", Pacific.UTCOffset())
	}
	if Eastern.UTCOffset() != -4*time.Hour {
		t.Errorf("Eastern offset = %v", Eastern.UTCOffset())
	}
	// Offsets ascend west to east by one hour.
	for z := Pacific; z < Eastern; z++ {
		if (z+1).UTCOffset()-z.UTCOffset() != time.Hour {
			t.Errorf("offset step at %v", z)
		}
	}
}

// TestTimezoneLocationCached pins the cached zone table: each zone's
// location is the fixed zone it used to build per call, and looking it up
// allocates nothing.
func TestTimezoneLocationCached(t *testing.T) {
	at := time.Date(2022, 8, 10, 12, 0, 0, 0, time.UTC)
	for z := Pacific; z <= Eastern; z++ {
		want := time.FixedZone(z.String(), int(z.UTCOffset().Seconds()))
		got := z.Location()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v.Location() = %#v, want %#v", z, got, want)
		}
		gotName, gotOff := at.In(got).Zone()
		wantName, wantOff := at.In(want).Zone()
		if gotName != wantName || gotOff != wantOff {
			t.Errorf("%v: zone %s%+d, want %s%+d", z, gotName, gotOff, wantName, wantOff)
		}
		if z.Location() != got {
			t.Errorf("%v.Location() is rebuilt per call", z)
		}
		if avg := testing.AllocsPerRun(100, func() { _ = z.Location() }); avg != 0 {
			t.Errorf("%v.Location() allocates %.1f objects per call", z, avg)
		}
	}
	bad := Timezone(7)
	if got, want := bad.Location(), time.FixedZone("Timezone(7)", -4*3600); !reflect.DeepEqual(got, want) {
		t.Errorf("%v.Location() = %#v, want %#v", bad, got, want)
	}
}

func TestTimezoneStrings(t *testing.T) {
	for z, want := range map[Timezone]string{
		Pacific: "Pacific", Mountain: "Mountain", Central: "Central", Eastern: "Eastern",
	} {
		if z.String() != want {
			t.Errorf("String(%d) = %q", int(z), z.String())
		}
	}
}

func TestMajorCities(t *testing.T) {
	cities := MajorCities()
	if len(cities) != 10 {
		t.Fatalf("city count = %d, want 10", len(cities))
	}
	if cities[0].Name != "Los Angeles" || cities[9].Name != "Boston" {
		t.Errorf("endpoints = %q, %q", cities[0].Name, cities[9].Name)
	}
	edges := 0
	for _, c := range cities {
		if c.HasEdge {
			edges++
		}
	}
	if edges != 5 {
		t.Errorf("edge cities = %d, want 5 (§3)", edges)
	}
	// Cities should run roughly west to east.
	for i := 1; i < len(cities); i++ {
		if cities[i].Loc.Lon < cities[i-1].Loc.Lon-3 {
			t.Errorf("city %q is far west of its predecessor", cities[i].Name)
		}
	}
}

func TestNewRouteValidation(t *testing.T) {
	if _, err := NewRoute(MajorCities()[:1], PaperRouteLength); err == nil {
		t.Error("single-city route not rejected")
	}
	if _, err := NewRoute(MajorCities(), 100*unit.Kilometer); err == nil {
		t.Error("road shorter than great-circle not rejected")
	}
}

func TestDefaultRouteLength(t *testing.T) {
	r := DefaultRoute()
	if got := r.Total(); got != PaperRouteLength {
		t.Errorf("Total = %v, want %v", got, PaperRouteLength)
	}
}

func TestRouteAtEndpoints(t *testing.T) {
	r := DefaultRoute()
	start := r.At(0)
	if start.City != "Los Angeles" || start.Region != Urban {
		t.Errorf("start = %+v", start)
	}
	end := r.At(r.Total())
	if end.City != "Boston" || end.Region != Urban {
		t.Errorf("end = %+v", end)
	}
	if start.Timezone != Pacific || end.Timezone != Eastern {
		t.Errorf("timezones = %v, %v", start.Timezone, end.Timezone)
	}
}

func TestRouteAtClamps(t *testing.T) {
	r := DefaultRoute()
	if got := r.At(-5 * unit.Kilometer).Odometer; got != 0 {
		t.Errorf("negative odometer clamped to %v", got)
	}
	if got := r.At(r.Total() + unit.Kilometer).Odometer; got != r.Total() {
		t.Errorf("overlong odometer clamped to %v", got)
	}
}

func TestRouteTimezonesMonotone(t *testing.T) {
	r := DefaultRoute()
	prev := Pacific
	for odo := unit.Meters(0); odo <= r.Total(); odo += 10 * unit.Kilometer {
		z := r.At(odo).Timezone
		if z < prev {
			t.Fatalf("timezone went backwards at %v: %v after %v", odo, z, prev)
		}
		prev = z
	}
	if prev != Eastern {
		t.Errorf("final timezone = %v, want Eastern", prev)
	}
}

func TestRouteVisitsAllTimezones(t *testing.T) {
	r := DefaultRoute()
	seen := map[Timezone]bool{}
	for odo := unit.Meters(0); odo <= r.Total(); odo += 10 * unit.Kilometer {
		seen[r.At(odo).Timezone] = true
	}
	if len(seen) != 4 {
		t.Errorf("visited %d timezones, want 4 (Table 1)", len(seen))
	}
}

func TestRouteRegionShares(t *testing.T) {
	r := DefaultRoute()
	shares := r.RegionShares(2 * unit.Kilometer)
	// Most of the paper's data comes from highways (§5.5); cities are a
	// small fraction.
	if shares[Highway] < 0.55 {
		t.Errorf("highway share = %.2f, want > 0.55", shares[Highway])
	}
	if shares[Urban] > 0.15 {
		t.Errorf("urban share = %.2f, want < 0.15", shares[Urban])
	}
	if shares[Suburban] < 0.05 {
		t.Errorf("suburban share = %.2f, want > 0.05", shares[Suburban])
	}
	total := shares[Urban] + shares[Suburban] + shares[Highway]
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("shares sum to %v", total)
	}
}

func TestRouteNearCityIsUrban(t *testing.T) {
	r := DefaultRoute()
	// Find the odometer position closest to Denver.
	var best unit.Meters = math.MaxFloat64
	var bestOdo unit.Meters
	denver := LatLon{39.7392, -104.9903}
	for odo := unit.Meters(0); odo <= r.Total(); odo += unit.Kilometer {
		if d := Haversine(r.At(odo).Loc, denver); d < best {
			best, bestOdo = d, odo
		}
	}
	wp := r.At(bestOdo)
	if wp.Region != Urban || wp.City != "Denver" {
		t.Errorf("closest approach to Denver: %+v (dist %v)", wp, best)
	}
	if !wp.CityHasEdge {
		t.Error("Denver should have an edge server")
	}
}

func TestRouteDeterministic(t *testing.T) {
	a, b := DefaultRoute(), DefaultRoute()
	for odo := unit.Meters(0); odo <= a.Total(); odo += 100 * unit.Kilometer {
		wa, wb := a.At(odo), b.At(odo)
		if wa != wb {
			t.Fatalf("routes diverge at %v: %+v vs %+v", odo, wa, wb)
		}
	}
}

func TestOdometerOfInvertsAt(t *testing.T) {
	r := DefaultRoute()
	for odo := unit.Meters(0); odo <= r.Total(); odo += 250 * unit.Kilometer {
		wp := r.At(odo)
		back := r.OdometerOf(wp.Loc)
		if diff := math.Abs(float64(back - odo)); diff > 25e3 {
			t.Errorf("OdometerOf(At(%v)) = %v; off by %v m", odo, back, diff)
		}
	}
}

func TestOdometerOfOffRoutePoint(t *testing.T) {
	r := DefaultRoute()
	// A point well north of the route still projects somewhere sane.
	odo := r.OdometerOf(LatLon{46.0, -100.0})
	if odo < 0 || odo > r.Total() {
		t.Errorf("projection out of range: %v", odo)
	}
}

func TestOdometerOfEndpoints(t *testing.T) {
	r := DefaultRoute()
	if got := r.OdometerOf(MajorCities()[0].Loc); got.Km() > 10 {
		t.Errorf("LA projects to %v", got)
	}
	if got := r.OdometerOf(MajorCities()[9].Loc); (r.Total() - got).Km() > 10 {
		t.Errorf("Boston projects to %v of %v", got, r.Total())
	}
}

// bruteNearestCity is the full Haversine scan nearestCity replaced: the
// first city, in index order, with the strictly smallest distance.
func bruteNearestCity(cities []City, loc LatLon) (unit.Meters, int) {
	best := unit.Meters(math.Inf(1))
	bestIdx := 0
	for i, c := range cities {
		if d := Haversine(loc, c.Loc); d < best {
			best, bestIdx = d, i
		}
	}
	return best, bestIdx
}

// TestNearestCityMatchesBruteForce pins the chord pre-pass as exact: along
// the whole route every 25 m, at every city centre and at every city-pair
// midpoint (where two cities are equidistant or nearly so), nearestCity
// picks the brute-force scan's city and returns its distance to the bit.
func TestNearestCityMatchesBruteForce(t *testing.T) {
	r := DefaultRoute()
	check := func(what string, loc LatLon) {
		t.Helper()
		wantD, wantI := bruteNearestCity(r.cities, loc)
		gotD, gotI := r.nearestCity(loc)
		if gotI != wantI || math.Float64bits(float64(gotD)) != math.Float64bits(float64(wantD)) {
			t.Fatalf("%s %v: nearestCity = (%v, %d), brute force = (%v, %d)", what, loc, gotD, gotI, wantD, wantI)
		}
	}
	n := 0
	for odo := unit.Meters(0); odo <= r.Total(); odo += 25 {
		check("route", r.At(odo).Loc)
		n++
	}
	if n < 228_000 {
		t.Fatalf("swept %d points, want the full route", n)
	}
	for i, a := range r.cities {
		check("city", a.Loc)
		for _, b := range r.cities[i+1:] {
			check("midpoint", LatLon{Lat: (a.Loc.Lat + b.Loc.Lat) / 2, Lon: (a.Loc.Lon + b.Loc.Lon) / 2})
		}
	}
}

// TestNearestCityTiesKeepIndexOrder checks the first-strict-minimum rule
// on exact ties: two cities at the same place and a query equidistant
// from two mirrored cities both resolve to the lower index.
func TestNearestCityTiesKeepIndexOrder(t *testing.T) {
	cities := []City{
		{Name: "A", Loc: LatLon{40, -100}},
		{Name: "B", Loc: LatLon{40, -90}},
		{Name: "C", Loc: LatLon{40, -90}},
		{Name: "D", Loc: LatLon{40, -80}},
	}
	r, err := NewRoute(cities, 2*Haversine(cities[0].Loc, cities[3].Loc))
	if err != nil {
		t.Fatal(err)
	}
	for _, loc := range []LatLon{{40, -90}, {41, -90.5}, {40, -95}, {40, -85}} {
		wantD, wantI := bruteNearestCity(cities, loc)
		if gotD, gotI := r.nearestCity(loc); gotI != wantI || gotD != wantD {
			t.Errorf("%v: nearestCity = (%v, %d), brute force = (%v, %d)", loc, gotD, gotI, wantD, wantI)
		}
	}
}

// BenchmarkRouteAt times the per-tick route lookup. One op is 10,000
// lookups spread evenly over the whole route, so the op covers every
// segment and is long enough to time at the manifest's few iterations.
func BenchmarkRouteAt(b *testing.B) {
	r := DefaultRoute()
	const lookups = 10_000
	step := r.Total() / lookups
	var wp Waypoint
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < lookups; k++ {
			wp = r.At(unit.Meters(k) * step)
		}
	}
	routeAtSink = wp
}

// routeAtSink keeps BenchmarkRouteAt's lookups observable.
var routeAtSink Waypoint
