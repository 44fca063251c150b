package radio

import "testing"

// AuditIndex installs the index audit (audit_test.go) on m for the drive
// tests in package radio_test and returns the number of transmissions
// audited so far.
func AuditIndex(t testing.TB, m *Medium) (audited func() int) {
	a := installIndexAudit(t, m)
	return func() int { return a.n }
}
