// Package ecc maps a row's sensed weakest-cell charge to the outcome the
// SECDED (single-error-correct, double-error-detect) code of a standard
// DRAM module would report for it: a row whose weakest cell has sagged
// moderately reads back with a single-bit error ECC can fix; one that
// sagged deeply is uncorrectable. That outcome is what the online VRT
// mitigation in the paper's ecosystem keys off (AVATAR upgrades a row when
// ECC corrects an error in it), and what the simulator and the patrol
// scrubber classify every sub-limit sense with.
package ecc

import "fmt"

// DecodeResult is the outcome a SECDED decode reports for a read.
type DecodeResult int

// Read outcomes.
const (
	OK DecodeResult = iota
	Corrected
	Uncorrectable
)

// String names the outcome.
func (r DecodeResult) String() string {
	switch r {
	case OK:
		return "ok"
	case Corrected:
		return "corrected"
	case Uncorrectable:
		return "uncorrectable"
	default:
		return fmt.Sprintf("DecodeResult(%d)", int(r))
	}
}

// ChargeClassifier maps a row's sensed weakest-cell charge to an ECC
// outcome: above the sensing limit all bits read correctly; in the window
// just below it, only the weakest cell has flipped (one bit per ECC word -
// correctable); deeper sag takes neighbouring weak cells with it and
// overwhelms SECDED.
type ChargeClassifier struct {
	// SenseLimit is the correct-read threshold (normalized charge).
	SenseLimit float64
	// CorrectableFloor is the charge above which a failed sense is still a
	// single-bit (correctable) error.
	CorrectableFloor float64
}

// DefaultClassifier uses the repository's 50% sensing limit with a
// correctable window down to 35% of charge.
func DefaultClassifier() ChargeClassifier {
	return ChargeClassifier{SenseLimit: 0.5, CorrectableFloor: 0.35}
}

// Validate reports the first unusable threshold.
func (c ChargeClassifier) Validate() error {
	if !(0 < c.CorrectableFloor && c.CorrectableFloor < c.SenseLimit && c.SenseLimit < 1) {
		return fmt.Errorf("ecc: thresholds must satisfy 0 < floor < limit < 1, got %+v", c)
	}
	return nil
}

// Classify maps a sensed normalized charge to a decode outcome.
func (c ChargeClassifier) Classify(charge float64) DecodeResult {
	switch {
	case charge >= c.SenseLimit:
		return OK
	case charge >= c.CorrectableFloor:
		return Corrected
	default:
		return Uncorrectable
	}
}
