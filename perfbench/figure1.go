package main

import (
	"fmt"
	"strings"
	"sync"

	"github.com/nuwins/cellwheels/internal/core"
	"github.com/nuwins/cellwheels/internal/dataset"
	"github.com/nuwins/cellwheels/internal/geo"
	"github.com/nuwins/cellwheels/internal/radio"
	"github.com/nuwins/cellwheels/internal/unit"
)

// Figure 1 of the report names, for each of 100 bins of the paper's route,
// the technology seen most often there. core.FigureCoverageMaps breaks a
// tie between two technologies by map iteration order, so one dataset can
// render Figure 1 differently from call to call; that is a defect of the
// program (README.md, "Defects this gate finds"). The report's digest is
// therefore taken over a canonical Figure 1. The program's figure is first
// checked against a recount from the dataset: every bin must name one of
// its most-seen technologies, or '.' exactly where there is no data, and
// the 5G shares must be its strips' own. It is then replaced by the
// recount, ties broken in technology order. Everything else in the report
// stays byte for byte.

// figure1Bins is the bin count the report renders Figure 1 with.
const figure1Bins = 100

// figure1Letters is the legend's letter for each technology, indexed by
// radio.Technology (LTE, LTE-A, 5G-low, 5G-mid, 5G-mmWave).
const figure1Letters = "LAlmW"

// routeTotal is the length Figure 1 bins over: the whole paper route,
// however short the campaign.
var routeTotal = sync.OnceValue(func() unit.Meters { return geo.DefaultRoute().Total() })

// figure1Ties counts, over checked reports, the Figure 1 bins whose
// most-seen technology is tied, and how many of those the program rendered
// with another technology than the first in order.
type figure1Ties struct {
	tied, offOrder int
}

func (t *figure1Ties) add(u figure1Ties) {
	t.tied += u.tied
	t.offOrder += u.offOrder
}

// binCounts is one strip's samples per bin and technology.
type binCounts [figure1Bins][len(figure1Letters)]int

// canonicalFigure1 checks the report's Figure 1 against db and returns the
// report with that figure rendered canonically.
func canonicalFigure1(report string, db *dataset.DB) (string, figure1Ties, error) {
	var ties figure1Ties
	total := routeTotal()
	binOf := func(odo unit.Meters) int {
		b := int(float64(odo) / float64(total) * figure1Bins)
		return min(max(b, 0), figure1Bins-1)
	}
	ops := radio.Operators()
	counts := make(map[radio.Operator][2]*binCounts, len(ops))
	for _, op := range ops {
		counts[op] = [2]*binCounts{new(binCounts), new(binCounts)}
	}
	for _, p := range db.Passive {
		counts[p.Op][0][binOf(p.Odometer)][p.Tech]++
	}
	for _, s := range db.Throughput {
		if !s.Static {
			counts[s.Op][1][binOf(s.Odometer)][s.Tech]++
		}
	}

	canon := core.CoverageMaps{Bins: figure1Bins, Strip: map[radio.Operator][2]string{}}
	for _, op := range ops {
		var s [2]string
		for k, c := range counts[op] {
			s[k] = canonicalStrip(c)
		}
		canon.Strip[op] = s
	}
	canon.Passive5G, canon.Active5G = shares5G(canon.Strip)
	want := canon.Render()

	header, _, _ := strings.Cut(want, "\n")
	start := strings.Index(report, header+"\n")
	if start < 0 {
		return "", ties, fmt.Errorf("report has no %q", header)
	}
	lines := strings.SplitAfterN(report[start:], "\n", 3+2*len(ops))
	if len(lines) < 3+2*len(ops) {
		return "", ties, fmt.Errorf("Figure 1 is cut short")
	}
	end := start + len(strings.Join(lines[:2+2*len(ops)], ""))
	got := core.CoverageMaps{Bins: figure1Bins, Strip: map[radio.Operator][2]string{}}
	for i, op := range ops {
		var s [2]string
		for k := range s {
			line := lines[2+2*i+k]
			_, rest, ok1 := strings.Cut(line, "[")
			strip, _, ok2 := strings.Cut(rest, "]")
			if !ok1 || !ok2 || len(strip) != figure1Bins {
				return "", ties, fmt.Errorf("Figure 1 line %q has no %d-bin strip", strings.TrimSpace(line), figure1Bins)
			}
			if err := checkStrip(strip, counts[op][k], &ties); err != nil {
				return "", ties, fmt.Errorf("Figure 1 %s %s strip: %w", op, [2]string{"passive", "active"}[k], err)
			}
			s[k] = strip
		}
		got.Strip[op] = s
	}
	got.Passive5G, got.Active5G = shares5G(got.Strip)
	if rendered := got.Render(); rendered != report[start:end] {
		return "", ties, fmt.Errorf("Figure 1 differs from its own strips rendered:\n%s\nwant\n%s", report[start:end], rendered)
	}
	return report[:start] + want + report[end:], ties, nil
}

// canonicalStrip renders each bin as its most-seen technology, the first
// in technology order on a tie, or '.' without data.
func canonicalStrip(c *binCounts) string {
	strip := make([]byte, figure1Bins)
	for b, n := range c {
		strip[b] = '.'
		best := 0
		for t := range n {
			if n[t] > best {
				strip[b], best = figure1Letters[t], n[t]
			}
		}
	}
	return string(strip)
}

// checkStrip checks that every bin of strip names one of its most-seen
// technologies, or '.' exactly where it has no data, and counts the ties.
func checkStrip(strip string, c *binCounts, ties *figure1Ties) error {
	canon := canonicalStrip(c)
	for b, n := range c {
		best, tied := 0, 0
		for _, v := range n {
			switch {
			case v > best:
				best, tied = v, 1
			case v == best && v > 0:
				tied++
			}
		}
		if best == 0 {
			if strip[b] != '.' {
				return fmt.Errorf("bin %d has no samples but reads %q", b, strip[b])
			}
			continue
		}
		t := strings.IndexByte(figure1Letters, strip[b])
		if t < 0 || n[t] != best {
			return fmt.Errorf("bin %d reads %q, not a technology with the bin's most samples (%d)", b, strip[b], best)
		}
		if tied > 1 {
			ties.tied++
			if strip[b] != canon[b] {
				ties.offOrder++
			}
		}
	}
	return nil
}

// shares5G is each strip's share of bins with data whose technology is 5G,
// as Figure 1 reports it.
func shares5G(strips map[radio.Operator][2]string) (passive, active map[radio.Operator]float64) {
	passive, active = map[radio.Operator]float64{}, map[radio.Operator]float64{}
	for op, s := range strips {
		for k, out := range []map[radio.Operator]float64{passive, active} {
			fiveG, withData := 0, 0
			for i := 0; i < len(s[k]); i++ {
				t := strings.IndexByte(figure1Letters, s[k][i])
				if t < 0 {
					continue
				}
				withData++
				if radio.Technology(t).Is5G() {
					fiveG++
				}
			}
			if withData > 0 {
				out[op] = float64(fiveG) / float64(withData)
			}
		}
	}
	return passive, active
}
