package bytecode

// VerifyMethod exposes verifyMethod to the external test package,
// whose fuzz target runs the programs it accepts on the VM.
var VerifyMethod = verifyMethod
