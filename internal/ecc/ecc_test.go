package ecc

import (
	"math"
	"testing"
)

func TestDecodeResultString(t *testing.T) {
	if OK.String() != "ok" || Corrected.String() != "corrected" || Uncorrectable.String() != "uncorrectable" {
		t.Fatal("result names wrong")
	}
	if DecodeResult(9).String() == "" {
		t.Fatal("unknown result must still stringify")
	}
}

func TestChargeClassifier(t *testing.T) {
	c := DefaultClassifier()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		charge float64
		want   DecodeResult
	}{
		{0.9, OK},
		{0.5, OK},                           // exactly at the sensing limit: a correct read, not an error
		{math.Nextafter(0.5, 0), Corrected}, // first representable charge below the limit
		{0.49, Corrected},
		{0.35, Corrected}, // exactly at the correctable floor: still single-bit
		{math.Nextafter(0.35, 0), Uncorrectable},
		{0.34, Uncorrectable},
		{0.0, Uncorrectable},
	}
	for _, tc := range cases {
		if got := c.Classify(tc.charge); got != tc.want {
			t.Errorf("Classify(%v) = %v, want %v", tc.charge, got, tc.want)
		}
	}
	bad := ChargeClassifier{SenseLimit: 0.3, CorrectableFloor: 0.5}
	if err := bad.Validate(); err == nil {
		t.Fatal("inverted thresholds must be rejected")
	}
}
