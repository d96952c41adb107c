// Package geo models the paper's cross-continental drive: the LA→Boston
// route through the ten major cities listed in §3, the four timezones it
// crosses, the urban/suburban/highway segmentation that §5.5 uses to
// explain speed-dependent performance, and the day-by-day drive schedule.
//
// The route is pure geography: it is identical for every campaign seed.
// Only the Drive — speed noise, urban stops — consumes campaign randomness.
package geo

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/nuwins/cellwheels/internal/simrand"
	"github.com/nuwins/cellwheels/internal/unit"
)

// LatLon is a WGS-84 coordinate in degrees.
type LatLon struct {
	Lat float64
	Lon float64
}

// String renders the coordinate as "lat,lon".
func (p LatLon) String() string { return fmt.Sprintf("%.4f,%.4f", p.Lat, p.Lon) }

const earthRadius = 6371e3 // meters

// Haversine reports the great-circle distance between two coordinates.
func Haversine(a, b LatLon) unit.Meters {
	la1, lo1 := a.Lat*math.Pi/180, a.Lon*math.Pi/180
	la2, lo2 := b.Lat*math.Pi/180, b.Lon*math.Pi/180
	dla, dlo := la2-la1, lo2-lo1
	h := math.Sin(dla/2)*math.Sin(dla/2) + math.Cos(la1)*math.Cos(la2)*math.Sin(dlo/2)*math.Sin(dlo/2)
	return unit.Meters(2 * earthRadius * math.Asin(math.Min(1, math.Sqrt(h))))
}

// Timezone is one of the four US timezones the route crosses.
type Timezone int

// The route's four timezones, west to east.
const (
	Pacific Timezone = iota
	Mountain
	Central
	Eastern
	numTimezones
)

// NumTimezones is the number of timezones along the route.
const NumTimezones = int(numTimezones)

// String implements fmt.Stringer.
func (z Timezone) String() string {
	switch z {
	case Pacific:
		return "Pacific"
	case Mountain:
		return "Mountain"
	case Central:
		return "Central"
	case Eastern:
		return "Eastern"
	default:
		//lint:allow hotbox — diagnostic fallback for invalid values; never taken for the four real zones
		return fmt.Sprintf("Timezone(%d)", int(z))
	}
}

// UTCOffset reports the UTC offset under daylight-saving time, which was
// in effect during the paper's August 2022 trip.
func (z Timezone) UTCOffset() time.Duration {
	switch z {
	case Pacific:
		return -7 * time.Hour
	case Mountain:
		return -6 * time.Hour
	case Central:
		return -5 * time.Hour
	default:
		return -4 * time.Hour
	}
}

// zoneLocations holds each route timezone's fixed-offset location, built
// once: Location sits on per-tick and per-row paths, and time.FixedZone
// allocates on every call.
var zoneLocations = [NumTimezones]*time.Location{
	Pacific.fixedZone(), Mountain.fixedZone(), Central.fixedZone(), Eastern.fixedZone(),
}

// Location returns a fixed-offset *time.Location for the zone. A value
// outside the four zones, as a decoded dataset may carry, gets a zone
// built on the spot.
func (z Timezone) Location() *time.Location {
	if z >= 0 && z < numTimezones {
		return zoneLocations[z]
	}
	return z.fixedZone()
}

func (z Timezone) fixedZone() *time.Location {
	return time.FixedZone(z.String(), int(z.UTCOffset().Seconds()))
}

// TimezoneAt classifies a longitude into the timezone it falls in along
// the I-15/I-80/I-90 corridor. Boundaries approximate the NV/UT, NE
// panhandle, and Indiana crossings.
func TimezoneAt(lon float64) Timezone {
	switch {
	case lon < -114.04:
		return Pacific
	case lon < -101.5:
		return Mountain
	case lon < -86.2:
		return Central
	default:
		return Eastern
	}
}

// Region is the paper's three-way segmentation of the route.
type Region int

// Region kinds. The paper's speed bins act as proxies for these: low
// speeds in cities, medium in suburbs, high on inter-state highways.
const (
	Urban Region = iota
	Suburban
	Highway
)

// String implements fmt.Stringer.
func (r Region) String() string {
	switch r {
	case Urban:
		return "urban"
	case Suburban:
		return "suburban"
	default:
		return "highway"
	}
}

// City is a major city on the route.
type City struct {
	Name    string
	Loc     LatLon
	HasEdge bool // a Verizon Wavelength edge server is deployed here (§3)
}

// MajorCities returns the ten cities of the paper's route, west to east.
// The five edge-server cities match §3: LA, Las Vegas, Denver, Chicago,
// and Boston.
func MajorCities() []City {
	return []City{
		{Name: "Los Angeles", Loc: LatLon{34.0522, -118.2437}, HasEdge: true},
		{Name: "Las Vegas", Loc: LatLon{36.1699, -115.1398}, HasEdge: true},
		{Name: "Salt Lake City", Loc: LatLon{40.7608, -111.8910}},
		{Name: "Denver", Loc: LatLon{39.7392, -104.9903}, HasEdge: true},
		{Name: "Omaha", Loc: LatLon{41.2565, -95.9345}},
		{Name: "Chicago", Loc: LatLon{41.8781, -87.6298}, HasEdge: true},
		{Name: "Indianapolis", Loc: LatLon{39.7684, -86.1581}},
		{Name: "Cleveland", Loc: LatLon{41.4993, -81.6944}},
		{Name: "Rochester", Loc: LatLon{43.1566, -77.6088}},
		{Name: "Boston", Loc: LatLon{42.3601, -71.0589}, HasEdge: true},
	}
}

// PaperRouteLength is the road distance the paper reports (Table 1).
const PaperRouteLength = 5711 * unit.Kilometer

// Classification radii.
const (
	urbanRadius    = 12 * unit.Kilometer
	suburbanRadius = 35 * unit.Kilometer
	townRadius     = 8 * unit.Kilometer
	townSpacing    = 150 * unit.Kilometer
)

// Route is the fixed LA→Boston drive path. It maps an odometer reading
// to a position, region class, timezone, and nearest city.
type Route struct {
	cities   []City
	cityVecs []vec3        // unit vector of each city, for nearestCity's pre-pass
	cumGC    []unit.Meters // cumulative great-circle distance at each city
	factor   float64       // road distance / great-circle distance
	total    unit.Meters   // road distance
	towns    []unit.Meters // odometer positions of small towns
	townLocs []LatLon
}

// NewRoute builds a route through the given cities with the given total
// road length. At least two cities are required and the road length must
// be at least the great-circle length.
func NewRoute(cities []City, roadLength unit.Meters) (*Route, error) {
	if len(cities) < 2 {
		return nil, errors.New("geo: route needs at least two cities")
	}
	cum := make([]unit.Meters, len(cities))
	for i := 1; i < len(cities); i++ {
		cum[i] = cum[i-1] + Haversine(cities[i-1].Loc, cities[i].Loc)
	}
	gc := cum[len(cum)-1]
	if gc <= 0 {
		return nil, errors.New("geo: degenerate route")
	}
	if roadLength < gc {
		return nil, fmt.Errorf("geo: road length %v below great-circle %v", roadLength, gc)
	}
	r := &Route{
		cities:   append([]City(nil), cities...),
		cityVecs: make([]vec3, len(cities)),
		cumGC:    cum,
		factor:   float64(roadLength) / float64(gc),
		total:    roadLength,
	}
	for i, c := range cities {
		r.cityVecs[i] = unitVec(c.Loc)
	}
	r.placeTowns()
	return r, nil
}

// DefaultRoute returns the paper's LA→Boston route at its 5,711 km road
// length.
func DefaultRoute() *Route {
	r, err := NewRoute(MajorCities(), PaperRouteLength)
	if err != nil {
		panic(err) // static construction cannot fail
	}
	return r
}

// placeTowns drops small towns at quasi-regular intervals. Towns are part
// of the fixed geography, so they use a route-local deterministic stream
// rather than campaign randomness.
func (r *Route) placeTowns() {
	rng := simrand.New(1815).Fork("geo/towns")
	for odo := townSpacing; odo < r.total; odo += townSpacing {
		jitter := unit.Meters(rng.Uniform(-40e3, 40e3))
		pos := odo + jitter
		if pos <= 0 || pos >= r.total {
			continue
		}
		loc, _ := r.interpolate(pos)
		// Skip towns that fall inside a major city's suburban ring; they
		// would not change classification there.
		if d, _ := r.nearestCity(loc); d < suburbanRadius {
			continue
		}
		r.towns = append(r.towns, pos)
		r.townLocs = append(r.townLocs, loc)
	}
}

// Total reports the road length of the route.
func (r *Route) Total() unit.Meters { return r.total }

// Cities returns the route's major cities, west to east.
func (r *Route) Cities() []City { return append([]City(nil), r.cities...) }

// interpolate maps an odometer reading to a coordinate and the index of
// the preceding city.
func (r *Route) interpolate(odo unit.Meters) (LatLon, int) {
	gc := unit.Meters(float64(odo) / r.factor)
	last := len(r.cumGC) - 1
	if gc <= 0 {
		return r.cities[0].Loc, 0
	}
	if gc >= r.cumGC[last] {
		return r.cities[last].Loc, last - 1
	}
	seg := 0
	for i := 1; i <= last; i++ {
		if gc < r.cumGC[i] {
			seg = i - 1
			break
		}
	}
	span := r.cumGC[seg+1] - r.cumGC[seg]
	f := float64(gc-r.cumGC[seg]) / float64(span)
	a, b := r.cities[seg].Loc, r.cities[seg+1].Loc
	return LatLon{
		Lat: a.Lat + f*(b.Lat-a.Lat),
		Lon: a.Lon + f*(b.Lon-a.Lon),
	}, seg
}

// vec3 is a point on the unit sphere.
type vec3 struct{ x, y, z float64 }

// unitVec maps a coordinate to its unit vector.
func unitVec(p LatLon) vec3 {
	sinLat, cosLat := math.Sincos(p.Lat * math.Pi / 180)
	sinLon, cosLon := math.Sincos(p.Lon * math.Pi / 180)
	return vec3{cosLat * cosLon, cosLat * sinLon, sinLat}
}

// chord2 reports the squared straight-line distance between two unit
// vectors, which grows strictly with the great-circle distance.
func (a vec3) chord2(b vec3) float64 {
	dx, dy, dz := a.x-b.x, a.y-b.y, a.z-b.z
	return dx*dx + dy*dy + dz*dz
}

// Tolerances of nearestCity's pre-pass: a city stays a candidate while
// its squared chord is within this relative margin of the smallest one,
// plus an absolute margin for a query sitting on a city. Both are many
// orders of magnitude above the rounding error of chord2 and Haversine.
const (
	chordRelTol = 1e-6
	chordAbsTol = 1e-15
)

// nearestCity reports the distance to and index of the closest major
// city: the first city, in index order, with the strictly smallest
// Haversine distance. A pre-pass over squared chords finds the minimum
// without trig; squared chord is monotone in great-circle distance, so
// only cities within rounding tolerance of that minimum can win, and only
// those are re-measured with Haversine. The result is bit-identical to a
// full Haversine scan at about one Haversine per call.
func (r *Route) nearestCity(loc LatLon) (unit.Meters, int) {
	q := unitVec(loc)
	minChord := math.Inf(1)
	for _, v := range r.cityVecs {
		if c := q.chord2(v); c < minChord {
			minChord = c
		}
	}
	limit := minChord*(1+chordRelTol) + chordAbsTol
	best := unit.Meters(math.Inf(1))
	bestIdx := 0
	for i, v := range r.cityVecs {
		if q.chord2(v) > limit {
			continue
		}
		if d := Haversine(loc, r.cities[i].Loc); d < best {
			best, bestIdx = d, i
		}
	}
	return best, bestIdx
}

// nearestTown reports the distance to the closest town along the route.
func (r *Route) nearestTown(odo unit.Meters) unit.Meters {
	best := unit.Meters(math.Inf(1))
	for _, t := range r.towns {
		d := odo - t
		if d < 0 {
			d = -d
		}
		if d < best {
			best = d
		}
	}
	return best
}

// Waypoint describes one point along the route.
type Waypoint struct {
	Odometer     unit.Meters
	Loc          LatLon
	Region       Region
	Timezone     Timezone
	City         string // nearest major city
	CityDistance unit.Meters
	CityHasEdge  bool
}

// At maps an odometer reading (clamped to [0, Total]) to a Waypoint.
func (r *Route) At(odo unit.Meters) Waypoint {
	if odo < 0 {
		odo = 0
	}
	if odo > r.total {
		odo = r.total
	}
	loc, _ := r.interpolate(odo)
	cityDist, cityIdx := r.nearestCity(loc)
	region := Highway
	switch {
	case cityDist < urbanRadius:
		region = Urban
	case cityDist < suburbanRadius, r.nearestTown(odo) < townRadius:
		region = Suburban
	}
	return Waypoint{
		Odometer:     odo,
		Loc:          loc,
		Region:       region,
		Timezone:     TimezoneAt(loc.Lon),
		City:         r.cities[cityIdx].Name,
		CityDistance: cityDist,
		CityHasEdge:  r.cities[cityIdx].HasEdge,
	}
}

// OdometerOf maps a coordinate back to the closest odometer position on
// the route — the post-processing step that joins GPS rows from the logs
// to route positions. The inverse of At up to projection error.
func (r *Route) OdometerOf(loc LatLon) unit.Meters {
	best := math.Inf(1)
	var bestOdo unit.Meters
	for i := 0; i+1 < len(r.cities); i++ {
		a, b := r.cities[i].Loc, r.cities[i+1].Loc
		// Flat-earth projection within a segment, with longitude scaled
		// by cos(latitude) so axes are commensurate.
		scale := math.Cos(a.Lat * math.Pi / 180)
		ax, ay := a.Lon*scale, a.Lat
		bx, by := b.Lon*scale, b.Lat
		px, py := loc.Lon*scale, loc.Lat
		dx, dy := bx-ax, by-ay
		den := dx*dx + dy*dy
		t := 0.0
		if den > 0 {
			t = ((px-ax)*dx + (py-ay)*dy) / den
		}
		if t < 0 {
			t = 0
		} else if t > 1 {
			t = 1
		}
		proj := LatLon{Lat: a.Lat + t*(b.Lat-a.Lat), Lon: a.Lon + t*(b.Lon-a.Lon)}
		if d := float64(Haversine(loc, proj)); d < best {
			best = d
			gc := r.cumGC[i] + unit.Meters(t*float64(r.cumGC[i+1]-r.cumGC[i]))
			bestOdo = unit.Meters(float64(gc) * r.factor)
		}
	}
	return bestOdo
}

// RegionShares reports the fraction of route length in each region,
// sampled at the given step.
func (r *Route) RegionShares(step unit.Meters) map[Region]float64 {
	if step <= 0 {
		step = unit.Kilometer
	}
	counts := map[Region]int{}
	n := 0
	for odo := unit.Meters(0); odo <= r.total; odo += step {
		counts[r.At(odo).Region]++
		n++
	}
	out := map[Region]float64{}
	for k, c := range counts {
		out[k] = float64(c) / float64(n)
	}
	return out
}
