package battery_test

import (
	"fmt"
	"time"

	"backuppower/internal/battery"
	"backuppower/internal/units"
)

// The Figure 3 battery: rated 10 minutes at 4 KW, it stretches to a full
// hour at quarter load — the nonlinearity the paper's cheap sleep-based
// techniques exploit.
func ExamplePack_RuntimeAt() {
	pack := battery.NewPack(battery.LeadAcid(), 4*units.Kilowatt, 10*time.Minute)
	fmt.Println("100% load:", pack.RuntimeAt(4*units.Kilowatt).Round(time.Minute))
	fmt.Println(" 25% load:", pack.RuntimeAt(1*units.Kilowatt).Round(time.Minute))
	// Output:
	// 100% load: 10m0s
	//  25% load: 1h0m0s
}

// Draining under a varying load: 5 minutes at full power consumes half the
// pack; the remaining half lasts 30 more minutes at quarter load.
func ExampleState_Drain() {
	pack := battery.NewPack(battery.LeadAcid(), 4*units.Kilowatt, 10*time.Minute)
	var s battery.State
	s.Drain(pack, 4*units.Kilowatt, 5*time.Minute)
	fmt.Printf("remaining after burst: %.0f%%\n", s.Remaining()*100)
	holds := time.Duration(s.Remaining() * float64(pack.RuntimeAt(units.Kilowatt)))
	fmt.Println("holds at 1 KW for:", holds.Round(time.Minute))
	// Output:
	// remaining after burst: 50%
	// holds at 1 KW for: 30m0s
}
