// Package geo models the multi-datacenter context of Sections 1 and 7:
// organizations with geo-replicated, power-uncorrelated sites can redirect
// load during an outage instead of (or in addition to) riding it locally.
// The catch the paper calls out: "power outages can cause load increase at
// the failed-over site, unless adequate spare capacity is set aside." This
// package prices that spare capacity against the backup savings it enables
// and derives the degraded service level a failover actually delivers.
package geo

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"backuppower/internal/outage"
	"backuppower/internal/units"
)

// Site is one datacenter of the fleet.
type Site struct {
	Name string
	// Capacity is the site's total serving capacity (normalized request
	// units; watts work too since load tracks power).
	Capacity float64
	// Load is the site's normal-operation load.
	Load float64
	// OutageSeed decorrelates this site's utility from the others.
	OutageSeed int64
}

// Validate checks the site.
func (s Site) Validate() error {
	if s.Capacity <= 0 {
		return fmt.Errorf("geo: site %s non-positive capacity", s.Name)
	}
	if s.Load < 0 || s.Load > s.Capacity {
		return fmt.Errorf("geo: site %s load %v out of [0, capacity]", s.Name, s.Load)
	}
	return nil
}

// Fleet is a set of geo-replicated sites serving one global workload.
type Fleet struct {
	Sites []Site
	// WANPenalty derates service delivered from a remote site (latency
	// inflation pushing requests past their deadline budget).
	WANPenalty float64
}

// Validate checks the fleet.
func (f Fleet) Validate() error {
	if len(f.Sites) < 2 {
		return fmt.Errorf("geo: fleet needs >= 2 sites")
	}
	names := map[string]bool{}
	for _, s := range f.Sites {
		if err := s.Validate(); err != nil {
			return err
		}
		if names[s.Name] {
			return fmt.Errorf("geo: duplicate site %s", s.Name)
		}
		names[s.Name] = true
	}
	if f.WANPenalty < 0 || f.WANPenalty >= 1 {
		return fmt.Errorf("geo: WAN penalty %v out of [0,1)", f.WANPenalty)
	}
	return nil
}

// Uniform builds n identical sites at the given utilization, with
// decorrelated outage seeds derived from seed.
func Uniform(n int, utilization, wanPenalty float64, seed int64) (Fleet, error) {
	if n < 2 {
		return Fleet{}, fmt.Errorf("geo: need >= 2 sites")
	}
	rng := rand.New(rand.NewSource(seed))
	f := Fleet{WANPenalty: wanPenalty}
	for i := 0; i < n; i++ {
		f.Sites = append(f.Sites, Site{
			Name:       fmt.Sprintf("site-%d", i),
			Capacity:   1,
			Load:       utilization,
			OutageSeed: rng.Int63(),
		})
	}
	return f, f.Validate()
}

// FailoverLevel returns the normalized service level the fleet delivers
// for the load of `down` failed sites absorbed by the survivors: the
// redirected load fills the survivors' headroom; anything beyond it is
// shed, and what is served remotely pays the WAN penalty.
func (f Fleet) FailoverLevel(down int) float64 {
	n := len(f.Sites)
	if down <= 0 {
		return 1
	}
	if down >= n {
		return 0
	}
	var displaced, spare, survivorLoad float64
	for i, s := range f.Sites {
		if i < down {
			displaced += s.Load
		} else {
			spare += s.Capacity - s.Load
			survivorLoad += s.Load
		}
	}
	absorbed := displaced
	if absorbed > spare {
		absorbed = spare
	}
	// Survivors' own traffic is unaffected; absorbed traffic pays the WAN
	// penalty; the rest is lost.
	total := displaced + survivorLoad
	served := survivorLoad + absorbed*(1-f.WANPenalty)
	return units.Clamp01(served / total)
}

// RequiredHeadroom returns the per-site spare-capacity fraction a uniform
// fleet needs so that `down` simultaneous site failures lose no traffic
// (before the WAN penalty).
func RequiredHeadroom(sites, down int) float64 {
	if down <= 0 || sites <= down {
		return 0
	}
	// (sites-down) * h*c >= down * (1-h)*c  =>  h >= down/sites.
	return float64(down) / float64(sites)
}

// YearReport summarizes a Monte-Carlo year of fleet operation.
type YearReport struct {
	SiteOutages     int
	OverlapEvents   int           // instants where >= 2 sites were dark at once
	WorstLevel      float64       // lowest global service level seen
	DegradedTime    time.Duration // time below full service
	ServiceLossTime time.Duration // (1-level)-weighted degraded time
}

// SimulateYear samples per-site outage traces (decorrelated seeds) and
// sweeps the year, computing the global service level whenever any site is
// dark. It assumes failed sites redirect instantly (their local backup
// question is what the rest of this library answers).
func (f Fleet) SimulateYear(year int64) (YearReport, error) {
	if err := f.Validate(); err != nil {
		return YearReport{}, err
	}
	type span struct{ start, end time.Duration }
	perSite := make([][]span, len(f.Sites))
	var rep YearReport
	var cuts []time.Duration
	for i, s := range f.Sites {
		gen := outage.NewGenerator(s.OutageSeed + year)
		for _, ev := range gen.Year() {
			perSite[i] = append(perSite[i], span{ev.Start, ev.Start + ev.Duration})
			cuts = append(cuts, ev.Start, ev.Start+ev.Duration)
			rep.SiteOutages++
		}
	}
	if len(cuts) == 0 {
		rep.WorstLevel = 1
		return rep, nil
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	rep.WorstLevel = 1
	for i := 0; i+1 < len(cuts); i++ {
		mid := cuts[i] + (cuts[i+1]-cuts[i])/2
		down := 0
		for _, spans := range perSite {
			for _, sp := range spans {
				if mid >= sp.start && mid < sp.end {
					down++
					break
				}
			}
		}
		if down == 0 {
			continue
		}
		if down >= 2 {
			rep.OverlapEvents++
		}
		level := f.FailoverLevel(down)
		if level < rep.WorstLevel {
			rep.WorstLevel = level
		}
		dur := cuts[i+1] - cuts[i]
		rep.DegradedTime += dur
		rep.ServiceLossTime += time.Duration(float64(dur) * (1 - level))
	}
	return rep, nil
}
