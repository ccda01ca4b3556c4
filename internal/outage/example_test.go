package outage_test

import (
	"fmt"
	"time"

	"backuppower/internal/outage"
)

// The Figure 1 duration distribution: most outages are short, but the tail
// is heavy — which is exactly why provisioning for "every eventuality" is
// so expensive.
func ExampleDistribution_CDF() {
	d := outage.DurationDistribution()
	fmt.Printf("under 5 min:  %.0f%%\n", d.CDF(5*time.Minute)*100)
	fmt.Printf("under 40 min: %.0f%%\n", d.CDF(40*time.Minute)*100)
	fmt.Printf("over 4 hours: %.0f%%\n", d.Survival(4*time.Hour)*100)
	// Output:
	// under 5 min:  58%
	// under 40 min: 74%
	// over 4 hours: 5%
}

// The predictor's key property: a fresh outage will probably end in
// minutes, but one that has already lasted half an hour probably will not —
// the signal an adaptive policy escalates on.
func ExampleDistribution_RemainingQuantile() {
	d := outage.DurationDistribution()
	fresh := d.RemainingQuantile(0, 0.5)
	old := d.RemainingQuantile(30*time.Minute, 0.5)
	fmt.Println("longer after 30min:", old > 2*fresh)
	fmt.Println("median fresh remaining:", fresh.Round(time.Second))
	// Output:
	// longer after 30min: true
	// median fresh remaining: 3m49s
}
