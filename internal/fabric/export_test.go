package fabric

// Release is what FromTransport does with a decoded payload once its
// handler chain has returned, for the external tests that decode without
// a transport.
var Release = release
