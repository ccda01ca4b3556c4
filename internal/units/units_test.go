package units

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestPowerScales(t *testing.T) {
	if Kilowatt != 1000*Watt {
		t.Fatalf("Kilowatt = %v, want 1000 W", Kilowatt)
	}
	if Megawatt != 1000*Kilowatt {
		t.Fatalf("Megawatt = %v, want 1000 KW", Megawatt)
	}
	if got := (2500 * Watt).KW(); got != 2.5 {
		t.Errorf("KW() = %v, want 2.5", got)
	}
	if got := (3 * Megawatt).MW(); got != 3 {
		t.Errorf("MW() = %v, want 3", got)
	}
}

func TestEnergyForDuration(t *testing.T) {
	// 4 KW for 15 minutes = 1 KWh.
	e := (4 * Kilowatt).ForDuration(15 * time.Minute)
	if !AlmostEqual(float64(e), 1000, 1e-9) {
		t.Fatalf("4KW*15min = %v, want 1 KWh", e)
	}
}

func TestEnergyPowerRoundTrip(t *testing.T) {
	f := func(pw uint16, mins uint8) bool {
		p := Watts(pw) + 1 // avoid zero
		d := time.Duration(mins+1) * time.Minute
		e := p.ForDuration(d)
		back := time.Duration(float64(e) / float64(p) * float64(time.Hour))
		return math.Abs(float64(back-d)) < float64(time.Millisecond)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestByteScales(t *testing.T) {
	if Gibibyte != 1024*Mebibyte {
		t.Fatalf("GiB = %d", Gibibyte)
	}
	if got := (18 * Gibibyte).GiB(); got != 18 {
		t.Errorf("GiB() = %v", got)
	}
	if got := (512 * Kibibyte).MiB(); got != 0.5 {
		t.Errorf("MiB() = %v", got)
	}
}

func TestTransferTime(t *testing.T) {
	// 1 GB at 125 MB/s = 8 s.
	d := GigabitEthernet.TimeFor(Bytes(1e9))
	if !AlmostEqual(d.Seconds(), 8, 1e-9) {
		t.Fatalf("1GB @ 1Gbps = %v, want 8s", d)
	}
	if d := BytesPerSecond(0).TimeFor(Gibibyte); d < time.Hour {
		t.Fatalf("zero rate should be effectively infinite, got %v", d)
	}
}

func TestStringFormats(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{(1500 * Watt).String(), "1.50 KW"},
		{(2 * Megawatt).String(), "2.00 MW"},
		{(80 * Watt).String(), "80.0 W"},
		{(1500 * WattHour).String(), "1.50 KWh"},
		{(500 * WattHour).String(), "500.0 Wh"},
		{(2 * Gibibyte).String(), "2.0 GiB"},
		{DollarsPerYear(1.34e6).String(), "1.34 M$/yr"},
		{DollarsPerYear(83300).String(), "83.3 K$/yr"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("String() = %q, want %q", c.got, c.want)
		}
	}
	if !strings.Contains(GigabitEthernet.String(), "MB/s") {
		t.Errorf("rate string = %q", GigabitEthernet.String())
	}
}

func TestClamp01(t *testing.T) {
	for _, c := range []struct{ in, want float64 }{
		{-1, 0}, {0, 0}, {0.5, 0.5}, {1, 1}, {2, 1},
	} {
		if got := Clamp01(c.in); got != c.want {
			t.Errorf("Clamp01(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestClamp01Property(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) {
			return true
		}
		v := Clamp01(x)
		return v >= 0 && v <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAlmostEqual(t *testing.T) {
	if !AlmostEqual(1.0, 1.0+1e-12, 1e-9) {
		t.Error("tiny diff should be equal")
	}
	if AlmostEqual(1.0, 1.1, 1e-3) {
		t.Error("10% diff should not be equal at 1e-3")
	}
	if !AlmostEqual(1e9, 1e9*(1+1e-6), 1e-5) {
		t.Error("relative tolerance should apply at scale")
	}
	if !AlmostEqual(0, 1e-12, 1e-9) {
		t.Error("absolute tolerance should apply near zero")
	}
}
