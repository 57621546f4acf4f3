package scrub

import (
	"fmt"

	"vrldram/internal/dram"
	"vrldram/internal/ecc"
)

// PatrolResult is what one patrol read learned about a row.
type PatrolResult struct {
	Outcome ecc.DecodeResult
	Charge  float64 // sensed weakest-cell charge at the read
}

// RowStore is the storage a Scrubber patrols: something that can be read
// row by row through a SECDED-classified path and can retire a row whose
// data has been relocated to a spare. BankStore adapts the charge-level
// dram.Bank to it; tests substitute their own stores.
type RowStore interface {
	Rows() int
	// PatrolRead senses the row at time now through the ECC path and
	// restores it (a patrol read is an activation).
	PatrolRead(row int, now float64) (PatrolResult, error)
	// Retire marks the row as quarantined: its data lives on a spare now,
	// so the weak row must stop contributing integrity violations.
	Retire(row int) error
}

// BankStore adapts the charge-level dram.Bank: a patrol read senses the
// weakest cell, classifies the charge into the outcome a SECDED decode
// would report (ecc.ChargeClassifier), and the activation restores the row.
type BankStore struct {
	bank *dram.Bank
	cls  ecc.ChargeClassifier
}

// NewBankStore wraps the bank with the given classifier.
func NewBankStore(b *dram.Bank, cls ecc.ChargeClassifier) (*BankStore, error) {
	if b == nil {
		return nil, fmt.Errorf("scrub: nil bank")
	}
	if err := cls.Validate(); err != nil {
		return nil, err
	}
	return &BankStore{bank: b, cls: cls}, nil
}

// Rows implements RowStore.
func (s *BankStore) Rows() int { return s.bank.Geom.Rows }

// PatrolRead implements RowStore.
func (s *BankStore) PatrolRead(row int, now float64) (PatrolResult, error) {
	res, err := s.bank.Access(row, now)
	if err != nil {
		return PatrolResult{}, err
	}
	return PatrolResult{Outcome: s.cls.Classify(res.ChargeBefore), Charge: res.ChargeBefore}, nil
}

// Retire implements RowStore.
func (s *BankStore) Retire(row int) error { return s.bank.Retire(row) }
